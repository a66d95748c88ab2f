"""Core tensor type with reverse-mode automatic differentiation.

The design mirrors the classic define-by-run tape: every differentiable
operation produces a new :class:`Tensor` holding references to its parents
and a closure that, given the output gradient already accumulated in
``self.grad``, pushes gradient contributions into the parents.  Calling
:meth:`Tensor.backward` performs a topological sort of the recorded graph
and runs the closures in reverse order.

All arrays are stored in the active default dtype (``float64`` unless a
:class:`~repro.autograd.dtype.DtypePolicy` says otherwise; the numerical
gradient checks in the test suite rely on double precision).  Gradients
are always accumulated in the dtype of the tensor they belong to, so
mixed-precision graphs never silently upcast a float32 model's grads.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from repro.autograd.dtype import default_dtype
from repro.autograd.segments import add_at

Scalar = Union[int, float]
TensorLike = Union["Tensor", np.ndarray, Scalar, Sequence]

_grad_state = threading.local()


def is_grad_enabled() -> bool:
    """Return whether operations currently record the autograd graph."""
    return getattr(_grad_state, "enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph recording (like torch.no_grad)."""
    previous = is_grad_enabled()
    _grad_state.enabled = False
    try:
        yield
    finally:
        _grad_state.enabled = previous


def _as_array(value: TensorLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=default_dtype())


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading broadcast dimensions.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like payload.  Copied only if conversion is required.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_backward", "_parents", "_op")
    __array_priority__ = 100  # make numpy defer to Tensor's reflected ops

    def __init__(self, data: TensorLike, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """All-zeros tensor of the given shape."""
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """All-ones tensor of the given shape."""
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str,
    ) -> "Tensor":
        # Runs once per recorded op: plain loops, no generator frames.
        parents = tuple([p for p in parents if isinstance(p, Tensor)])
        out = cls(data)
        if is_grad_enabled():
            for parent in parents:
                if parent.requires_grad:
                    out.requires_grad = True
                    out._backward = backward
                    out._parents = parents
                    out._op = op
                    break
        return out

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        """Array shape."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """The single scalar value (errors if size != 1)."""
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a view of the data cut off from the autograd graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        """Detached deep copy of the data."""
        return Tensor(self.data.copy(), requires_grad=False)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Gradient accumulation
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        # Gradients live in their tensor's own dtype, independent of the
        # ambient policy: a float64 reference graph stays float64 even
        # under an active float32 DtypePolicy (and vice versa).
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        """Drop the accumulated gradient."""
        self.grad = None

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to ones (only valid implicitly for scalar outputs).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar output, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))

        ordered: list[Tensor] = []
        visited: set[int] = set()
        # Iterative DFS: model graphs can be deep (k timestamps x layers).
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        pop, push, visit = stack.pop, stack.append, visited.add
        while stack:
            node, processed = pop()
            if processed:
                ordered.append(node)
                continue
            key = id(node)
            if key in visited:
                continue
            visit(key)
            push((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    push((parent, False))

        for node in reversed(ordered):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                # Free the graph references so memory is reclaimed and a
                # second backward() through the same graph fails loudly.
                node._backward = None
                node._parents = ()
            if not node.requires_grad:
                node.grad = None

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(grad)

        return Tensor._from_op(out_data, (self, other_t), backward, "add")

    def __radd__(self, other: TensorLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward, "neg")

    def __sub__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad)
            if other_t.requires_grad:
                other_t._accumulate(-grad)

        return Tensor._from_op(out_data, (self, other_t), backward, "sub")

    def __rsub__(self, other: TensorLike) -> "Tensor":
        return Tensor(other).__sub__(self)

    def __mul__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(grad * self.data)

        return Tensor._from_op(out_data, (self, other_t), backward, "mul")

    def __rmul__(self, other: TensorLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / other_t.data)
            if other_t.requires_grad:
                other_t._accumulate(-grad * self.data / (other_t.data**2))

        return Tensor._from_op(out_data, (self, other_t), backward, "div")

    def __rtruediv__(self, other: TensorLike) -> "Tensor":
        return Tensor(other).__truediv__(self)

    def __pow__(self, exponent: Scalar) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(out_data, (self,), backward, "pow")

    def __matmul__(self, other: TensorLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            a, b = self.data, other_t.data
            if self.requires_grad:
                if b.ndim == 1:
                    grad_a = np.outer(grad, b) if a.ndim == 2 else grad * b
                else:
                    grad_a = grad @ np.swapaxes(b, -1, -2)
                self._accumulate(_unbroadcast(np.asarray(grad_a), a.shape))
            if other_t.requires_grad:
                if a.ndim == 1:
                    grad_b = np.outer(a, grad) if b.ndim == 2 else a * grad
                else:
                    grad_b = np.swapaxes(a, -1, -2) @ grad
                other_t._accumulate(_unbroadcast(np.asarray(grad_b), b.shape))

        return Tensor._from_op(out_data, (self, other_t), backward, "matmul")

    # ------------------------------------------------------------------
    # Elementwise math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward, "exp")

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(np.log(self.data), (self,), backward, "log")

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        out_data = np.sqrt(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * 0.5 / out_data)

        return Tensor._from_op(out_data, (self,), backward, "sqrt")

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._from_op(out_data, (self,), backward, "tanh")

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic function (numerically stable)."""
        # Numerically stable logistic: evaluate each branch only where valid.
        z = self.data
        out_data = np.empty_like(z)
        pos = z >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        exp_neg = np.exp(z[~pos])
        out_data[~pos] = exp_neg / (1.0 + exp_neg)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward, "sigmoid")

    def relu(self) -> "Tensor":
        """Elementwise max(x, 0)."""
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(self.data * mask, (self,), backward, "relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        """ReLU with a small negative-side slope."""
        slope = np.where(self.data > 0, 1.0, negative_slope)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * slope)

        return Tensor._from_op(self.data * slope, (self,), backward, "leaky_relu")

    def abs(self) -> "Tensor":
        """Elementwise absolute value (gradient is sign(x))."""
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * sign)

        return Tensor._from_op(np.abs(self.data), (self,), backward, "abs")

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp to [low, high]; gradient flows only inside the range."""
        mask = (self.data > low) & (self.data < high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(np.clip(self.data, low, high), (self,), backward, "clip")

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements if None)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return Tensor._from_op(out_data, (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis`` (all elements if None)."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum over ``axis``; tied maxima share the gradient."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = np.asarray(grad)
            expanded = self.data.max(axis=axis, keepdims=True)
            mask = self.data == expanded
            # Split gradient evenly among ties, matching numerical checks.
            counts = mask.sum(axis=axis, keepdims=True)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.data.shape) * mask / counts)

        return Tensor._from_op(out_data, (self,), backward, "max")

    # ------------------------------------------------------------------
    # Shape manipulation and indexing
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """View with a new shape (same number of elements)."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.asarray(grad).reshape(self.data.shape))

        return Tensor._from_op(out_data, (self,), backward, "reshape")

    def transpose(self, *axes: int) -> "Tensor":
        """Permute axes (reversed order when none given)."""
        axes_tuple = axes if axes else tuple(reversed(range(self.data.ndim)))
        if len(axes_tuple) == 1 and isinstance(axes_tuple[0], (tuple, list)):
            axes_tuple = tuple(axes_tuple[0])
        inverse = np.argsort(axes_tuple)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(np.asarray(grad), inverse))

        return Tensor._from_op(
            np.transpose(self.data, axes_tuple), (self,), backward, "transpose"
        )

    @property
    def T(self) -> "Tensor":
        """Transpose with reversed axes."""
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        if isinstance(index, Tensor):
            index = index.data.astype(np.int64)
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                add_at(full, index, np.asarray(grad))
                self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward, "getitem")

    def gather_rows(self, index: np.ndarray, plan=None) -> "Tensor":
        """Row gather for embedding lookups; ``index`` is an int array.

        ``plan``, a :meth:`SparseSum.add_at
        <repro.autograd.segments.SparseSum.add_at>` of ``index``, replaces
        the backward's ``np.add.at`` with its equal sparse product; the
        node is the same ``getitem``.
        """
        index = np.asarray(index, dtype=np.int64)
        if plan is None:
            return self[index]

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(plan(grad, len(self.data)))

        return Tensor._from_op(self.data[index], (self,), backward, "getitem")
