"""Persistence: model checkpoints (.npz) and TKG import/export (TSV).

Checkpoints store a module's ``state_dict`` plus a JSON-encoded config
blob, so a model can be rebuilt and resumed in a fresh process.  TKGs
round-trip through the common 4-column TSV layout used by the public
TKG benchmark dumps (``subject<TAB>relation<TAB>object<TAB>time``).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, is_dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph import TemporalKG

_CONFIG_KEY = "__config_json__"


class TKGFormatError(ValueError):
    """A TSV row that cannot be parsed or violates the declared vocab.

    Carries the offending file and 1-based line number so a bad dump can
    be fixed instead of surfacing as an index error deep in the encoder.
    """

    def __init__(self, path: str, line_number: int, message: str):
        super().__init__(f"{path}:{line_number}: {message}")
        self.path = path
        self.line_number = line_number


def atomic_savez(path: str, payload: Dict[str, np.ndarray]) -> str:
    """Atomically write ``payload`` as an uncompressed ``.npz`` archive.

    The archive is written to a temporary file in the target directory,
    flushed and fsynced, then moved into place with ``os.replace`` so a
    crash mid-write never leaves a truncated file at ``path``.  A
    missing ``.npz`` suffix is appended (``np.savez`` would otherwise do
    so silently, landing the file at a different path than requested).
    Returns the real path written.
    """
    if not path.endswith(".npz"):
        path = path + ".npz"
    path = os.path.abspath(path)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def save_checkpoint(
    path: str,
    state: Dict[str, np.ndarray],
    config=None,
) -> str:
    """Write a state dict (and optional config dataclass/dict) to ``path``.

    Parameters
    ----------
    path:
        Target ``.npz`` file; parent directories are created and a
        missing ``.npz`` suffix is appended.
    state:
        A module's ``state_dict()``.
    config:
        Optional dataclass or plain dict stored alongside the arrays so
        :func:`load_checkpoint` can rebuild the model.

    Returns the real path written (atomic: temp file + ``os.replace``).
    """
    payload = dict(state)
    if _CONFIG_KEY in payload:
        raise ValueError(f"state must not contain the reserved key {_CONFIG_KEY!r}")
    if config is not None:
        blob = asdict(config) if is_dataclass(config) else dict(config)
        payload[_CONFIG_KEY] = np.frombuffer(
            json.dumps(blob).encode("utf-8"), dtype=np.uint8
        )
    return atomic_savez(path, payload)


def load_checkpoint(path: str) -> Tuple[Dict[str, np.ndarray], Optional[dict]]:
    """Read back ``(state_dict, config_dict_or_None)`` from ``path``."""
    with np.load(path) as archive:
        config = None
        state = {}
        for key in archive.files:
            if key == _CONFIG_KEY:
                config = json.loads(bytes(archive[key]).decode("utf-8"))
                continue
            state[key] = archive[key]
    return state, config


def save_tkg_tsv(path: str, graph: TemporalKG) -> None:
    """Export a TKG as 4-column TSV with a ``# header`` carrying sizes."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w") as fh:
        # Spaces in the granularity label are escaped as underscores so
        # the header stays whitespace-tokenisable.
        granularity = graph.granularity.replace(" ", "_")
        fh.write(
            f"# entities={graph.num_entities} relations={graph.num_relations} "
            f"granularity={granularity}\n"
        )
        for s, r, o, t in graph.facts:
            fh.write(f"{s}\t{r}\t{o}\t{t}\n")


def load_tkg_tsv(
    path: str,
    num_entities: Optional[int] = None,
    num_relations: Optional[int] = None,
) -> TemporalKG:
    """Import a TKG from TSV.

    Vocabulary sizes come from the ``#`` header when present; otherwise
    they must be passed (or are inferred as max id + 1).  Malformed rows
    and ids outside a declared vocabulary raise :class:`TKGFormatError`
    carrying the file path and 1-based line number.
    """
    facts = []
    granularity = "1 step"
    with open(path) as fh:
        for line_number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                for token in line[1:].split():
                    key, _, value = token.partition("=")
                    try:
                        if key == "entities":
                            num_entities = num_entities or int(value)
                        elif key == "relations":
                            num_relations = num_relations or int(value)
                    except ValueError:
                        raise TKGFormatError(
                            path, line_number,
                            f"malformed header token {token!r} (expected an integer)",
                        ) from None
                    if key == "granularity":
                        granularity = value.replace("_", " ")
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise TKGFormatError(
                    path, line_number,
                    f"expected 4 tab-separated columns "
                    f"(subject\\trelation\\tobject\\ttime), got {len(fields)}: {line!r}",
                )
            try:
                s, r, o, t = (int(x) for x in fields)
            except ValueError:
                raise TKGFormatError(
                    path, line_number, f"non-integer field in row {line!r}"
                ) from None
            if min(s, r, o, t) < 0:
                raise TKGFormatError(
                    path, line_number, f"negative id in row ({s}, {r}, {o}, {t})"
                )
            if num_entities is not None and max(s, o) >= num_entities:
                raise TKGFormatError(
                    path, line_number,
                    f"entity id {max(s, o)} out of range for the declared "
                    f"vocabulary of {num_entities} entities",
                )
            if num_relations is not None and r >= num_relations:
                raise TKGFormatError(
                    path, line_number,
                    f"relation id {r} out of range for the declared "
                    f"vocabulary of {num_relations} relations",
                )
            facts.append((s, r, o, t))
    array = np.asarray(facts, dtype=np.int64).reshape(-1, 4)
    if num_entities is None:
        num_entities = int(array[:, [0, 2]].max()) + 1 if len(array) else 0
    if num_relations is None:
        num_relations = int(array[:, 1].max()) + 1 if len(array) else 0
    return TemporalKG(array, num_entities, num_relations, granularity)
