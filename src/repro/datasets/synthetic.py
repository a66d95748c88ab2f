"""Seeded synthetic TKG generator with extrapolatable temporal structure.

The generator produces event streams with three superposed mechanisms,
each exercising a distinct modelling capability that the paper's
evaluation contrasts:

1. **Recurrence** — a pool of "base facts" re-fires over time with
   per-fact periodicity and persistence.  This is the one-hop repetition
   signal that CyGNet's copy mechanism and TiRGN's history gating
   exploit, and it dominates the YAGO/WIKI profiles (facts there persist
   for year-granularity spans).
2. **Neighbourhood drift** — entities belong to latent communities;
   relations connect community pairs; community activity levels follow a
   slow random walk.  R-GCN-style encoders (RE-GCN, RETIA's EAM) read
   this structure out of each snapshot.
3. **Relation chaining** — a sparse rule set ``r1 --chain--> r2`` makes a
   fact ``(s, r1, o, t)`` spawn ``(o, r2, o', t + lag)``.  Chains create
   exactly the entity-bridged relation adjacency ("the object of r1 is
   the subject of r2", hyperrelation *o-s*) whose aggregation is RETIA's
   contribution; models without relation aggregation see the chained
   events as near-noise.

Everything is driven by one ``numpy`` generator seeded from the config,
so datasets are fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graph import TemporalKG


@dataclass(frozen=True)
class SyntheticTKGConfig:
    """Knobs for :func:`generate_tkg`.

    The default values give a small, CPU-friendly dataset; the per-dataset
    profiles in :mod:`repro.datasets.registry` override them to mimic the
    paper's Table V shape.
    """

    num_entities: int = 60
    num_relations: int = 10
    num_timestamps: int = 40
    #: Average number of *base* events active per timestamp.
    events_per_step: int = 60
    #: Number of latent entity communities.
    num_communities: int = 4
    #: Size of the recurring base-fact pool.
    base_pool_size: int = 150
    #: Probability that an active base fact re-fires at its period.
    recurrence: float = 0.6
    #: Mean period (in timestamps) between re-fires of a base fact.
    mean_period: float = 3.0
    #: Fraction of relations participating in chain rules.
    chain_relation_fraction: float = 0.5
    #: Probability a chainable fact spawns its successor next step.
    chain_probability: float = 0.5
    #: Fraction of per-step events that are uniform noise.
    noise_fraction: float = 0.05
    #: Number of relation families sharing a community pattern (0 =
    #: every relation has its own pattern).  Real event vocabularies are
    #: long-tailed: many rare relations behave like a frequent sibling
    #: (e.g. CAMEO sub-codes).  Rare relations are only predictable
    #: through representation sharing — the signal RETIA's hyperrelation
    #: aggregation exploits.
    relation_families: int = 0
    #: Zipf exponent for relation usage frequency (0 = uniform).
    relation_zipf: float = 0.0
    #: Probability that a recurring base fact fires with a *different*
    #: object from the relation's object community.  Jitter converts
    #: exact repeats into community-predictable variations: copy
    #: mechanisms lose the verbatim answer while structural models can
    #: still generalise — the balance real ICEWS data exhibits (~40%
    #: verbatim repeats at test time).
    object_jitter: float = 0.0
    #: Size of each base fact's object pool (1 = a single fixed object,
    #: the YAGO/WIKI persistent-fact regime).  With pools > 1 the fact is
    #: one-to-many: ``(s, r)`` fires with one of several community
    #: objects.
    objects_per_fact: int = 1
    #: Per-step probability that a fact's object preference re-randomises
    #: (a regime switch).  Switching makes the *currently hot* object
    #: locally stable but globally shifting: models that aggregate the
    #: recent window (the RE-GCN family) can track it, while global
    #: history counters see a diluted marginal — the balance that
    #: separates the two families on real ICEWS data.
    object_drift: float = 0.0
    #: Master seed.
    seed: int = 0

    def __post_init__(self):
        if self.num_entities < 2 or self.num_relations < 1:
            raise ValueError("need at least 2 entities and 1 relation")
        if self.num_timestamps < 3:
            raise ValueError("need at least 3 timestamps for train/valid/test")
        if not 0.0 <= self.noise_fraction <= 1.0:
            raise ValueError("noise_fraction must be in [0, 1]")
        if not 0.0 <= self.recurrence <= 1.0:
            raise ValueError("recurrence must be in [0, 1]")
        if self.objects_per_fact < 1:
            raise ValueError("objects_per_fact must be >= 1")
        if not 0.0 <= self.object_jitter <= 1.0:
            raise ValueError("object_jitter must be in [0, 1]")
        if not 0.0 <= self.object_drift <= 1.0:
            raise ValueError("object_drift must be in [0, 1]")
        if self.num_communities < 1:
            raise ValueError("num_communities must be >= 1")
        if not self.mean_period >= 0.0:
            raise ValueError("mean_period must be >= 0")
        if not 0.0 <= self.chain_probability <= 1.0:
            raise ValueError("chain_probability must be in [0, 1]")
        if not 0.0 <= self.chain_relation_fraction <= 1.0:
            raise ValueError("chain_relation_fraction must be in [0, 1]")


def _assign_communities(config: SyntheticTKGConfig, rng: np.random.Generator) -> np.ndarray:
    """Entity -> community labels, roughly balanced."""
    labels = np.arange(config.num_entities) % config.num_communities
    rng.shuffle(labels)
    return labels


def _relation_patterns(config: SyntheticTKGConfig, rng: np.random.Generator) -> np.ndarray:
    """Per relation: (subject community, object community).

    With ``relation_families > 0``, relations are grouped into families
    that share one pattern, mimicking long-tailed real vocabularies.
    """
    if config.relation_families and config.relation_families < config.num_relations:
        family_patterns = rng.integers(
            0, config.num_communities, size=(config.relation_families, 2)
        )
        family_of = rng.integers(0, config.relation_families, size=config.num_relations)
        return family_patterns[family_of]
    return rng.integers(0, config.num_communities, size=(config.num_relations, 2))


def _relation_usage(config: SyntheticTKGConfig, rng: np.random.Generator) -> np.ndarray:
    """Sampling distribution over relations (Zipf-like long tail)."""
    if config.relation_zipf <= 0.0:
        return np.full(config.num_relations, 1.0 / config.num_relations)
    ranks = np.arange(1, config.num_relations + 1, dtype=np.float64)
    weights = ranks**-config.relation_zipf
    rng.shuffle(weights)
    return weights / weights.sum()


def _chain_rules(config: SyntheticTKGConfig, rng: np.random.Generator, patterns: np.ndarray) -> dict:
    """Map relation -> successor relation for the chaining mechanism.

    The successor is chosen so its subject community matches the
    predecessor's object community, making the chain structurally
    consistent (the bridging entity fits both patterns).
    """
    rules: dict = {}
    num_chain = int(round(config.chain_relation_fraction * config.num_relations))
    candidates = rng.permutation(config.num_relations)[:num_chain]
    for rel in candidates:
        object_community = patterns[rel, 1]
        compatible = np.flatnonzero(patterns[:, 0] == object_community)
        compatible = compatible[compatible != rel]
        if len(compatible):
            rules[int(rel)] = int(rng.choice(compatible))
    return rules


def _cdf(probs: np.ndarray) -> np.ndarray:
    """The normalised cumulative sum :meth:`numpy.random.Generator.choice` draws by."""
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _draw(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """``rng.choice(len(cdf), p=probs)`` for ``cdf = _cdf(probs)``: the same
    one uniform draw and search, without re-validating ``probs``."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _sample_entity(members: np.ndarray, num_entities: int, rng: np.random.Generator) -> int:
    """A uniform draw from one community (any entity if it is empty).

    ``rng.choice(members)`` draws exactly this one integer.
    """
    if not len(members):
        return int(rng.integers(0, num_entities))
    return int(members[rng.integers(0, len(members))])


class _BaseFact:
    """A recurring event template: subject, relation, an object pool with
    drifting preferences, and a firing period."""

    __slots__ = ("subject", "relation", "objects", "logits", "hot", "cdf", "period")

    def __init__(self, subject, relation, objects, period):
        self.subject = int(subject)
        self.relation = int(relation)
        self.objects = np.asarray(objects, dtype=np.int64)
        self.logits = np.zeros(len(self.objects))
        #: ``self.logits.any()``, set whenever ``drift`` replaces the logits.
        self.hot = False
        #: The object distribution of the current logits as a :func:`_cdf`,
        #: computed by the first draw after ``drift`` replaces them.
        self.cdf = None
        self.period = float(period)

    def drift(self, switch_probability: float, rng: np.random.Generator) -> None:
        """Preference regime switch: with the given per-step probability,
        re-randomise the object preferences (sharp logits).  The hot
        object is stable for ~1/p steps — long enough for a last-k
        window to identify it, short enough that global history counts
        see a nearly flat marginal over the pool."""
        if switch_probability and len(self.objects) > 1:
            if rng.random() < switch_probability or not self.hot:
                self.logits = rng.normal(0.0, 3.0, size=self.logits.shape)
                self.hot = bool(self.logits.any())
                self.cdf = None

    def sample_object(self, rng: np.random.Generator) -> int:
        if len(self.objects) == 1:
            return int(self.objects[0])
        if self.cdf is None:
            shifted = self.logits - self.logits.max()
            probs = np.exp(shifted)
            probs /= probs.sum()
            self.cdf = _cdf(probs)
        return int(self.objects[_draw(self.cdf, rng)])


def _build_base_pool(
    config: SyntheticTKGConfig,
    rng: np.random.Generator,
    members: List[np.ndarray],
    patterns: np.ndarray,
    usage_cdf: np.ndarray,
) -> List[_BaseFact]:
    """Recurring base facts consistent with the community patterns."""
    pool = []
    for _ in range(config.base_pool_size):
        rel = _draw(usage_cdf, rng)
        subj = _sample_entity(members[patterns[rel, 0]], config.num_entities, rng)
        pool_size = int(rng.integers(1, config.objects_per_fact + 1))
        objects = []
        for _ in range(pool_size):
            obj = _sample_entity(members[patterns[rel, 1]], config.num_entities, rng)
            if obj == subj:
                obj = (obj + 1) % config.num_entities
            objects.append(obj)
        period = max(1.0, rng.exponential(config.mean_period))
        pool.append(_BaseFact(subj, rel, sorted(set(objects)), period))
    return pool


def generate_tkg(config: SyntheticTKGConfig, granularity: str = "1 step") -> TemporalKG:
    """Generate a :class:`~repro.graph.TemporalKG` from ``config``.

    The stream is deterministic given ``config.seed``.
    """
    rng = np.random.default_rng(config.seed)
    communities = _assign_communities(config, rng)
    patterns = _relation_patterns(config, rng)
    usage_cdf = _cdf(_relation_usage(config, rng))
    rules = _chain_rules(config, rng, patterns)
    # Each community's members, ascending, built once: every draw then
    # picks from the array a per-draw scan of the labels would give, so
    # the stream is consumed exactly as by that scan.
    members = [np.flatnonzero(communities == c) for c in range(config.num_communities)]
    pool = _build_base_pool(config, rng, members, patterns, usage_cdf)

    # Phase offsets stagger base facts so snapshots differ.
    offsets = rng.uniform(0, config.mean_period, size=len(pool))
    # Slow community-activity random walk (neighbourhood drift).
    activity = np.ones(config.num_communities)

    facts = set()
    pending_chains: List[Tuple[int, int, int]] = []  # (s, r, o) due this step
    noise_per_step = max(0, int(round(config.events_per_step * config.noise_fraction)))

    for t in range(config.num_timestamps):
        activity = np.clip(activity + rng.normal(0, 0.1, size=activity.shape), 0.3, 3.0)
        step_facts: List[Tuple[int, int, int]] = []

        # 1) Recurrence: base facts fire when their phase comes up; the
        #    preferred object drifts slowly over time.
        for idx, fact in enumerate(pool):
            fact.drift(config.object_drift, rng)
            phase = (t + offsets[idx]) % fact.period
            if phase < 1.0 and rng.random() < config.recurrence:
                weight = activity[communities[fact.subject]]
                if rng.random() < min(1.0, weight):
                    obj = fact.sample_object(rng)
                    if config.object_jitter and rng.random() < config.object_jitter:
                        jittered = _sample_entity(
                            members[patterns[fact.relation, 1]], config.num_entities, rng
                        )
                        if jittered == fact.subject:
                            jittered = (jittered + 1) % config.num_entities
                        obj = jittered
                    step_facts.append((fact.subject, fact.relation, obj))

        # 2) Chains queued from the previous timestamp.
        step_facts.extend(pending_chains)
        pending_chains = []

        # 3) Noise events: random entities, relation drawn from the usage
        #    distribution but *consistent with its family pattern*, so
        #    rare relations remain family-typical rather than pure noise.
        for _ in range(noise_per_step):
            rel = _draw(usage_cdf, rng)
            subj = _sample_entity(members[patterns[rel, 0]], config.num_entities, rng)
            obj = int(rng.integers(0, config.num_entities))
            if subj == obj:
                obj = (obj + 1) % config.num_entities
            step_facts.append((subj, rel, obj))

        # Queue successors for next step from this step's chainable facts.
        for subj, rel, obj in step_facts:
            successor = rules.get(rel)
            if successor is not None and rng.random() < config.chain_probability:
                next_obj = _sample_entity(
                    members[patterns[successor, 1]], config.num_entities, rng
                )
                if next_obj == obj:
                    next_obj = (next_obj + 1) % config.num_entities
                pending_chains.append((obj, successor, next_obj))

        for subj, rel, obj in step_facts:
            facts.add((subj, rel, obj, t))

        # Guarantee non-empty snapshots (evaluation iterates timestamps).
        if not step_facts:
            subj = int(rng.integers(0, config.num_entities))
            obj = (subj + 1) % config.num_entities
            facts.add((subj, int(rng.integers(0, config.num_relations)), obj, t))

    array = np.array(sorted(facts), dtype=np.int64)
    return TemporalKG(array, config.num_entities, config.num_relations, granularity)
