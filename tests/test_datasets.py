"""Tests for the synthetic dataset generator and the registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    DATASET_PROFILES,
    SyntheticTKGConfig,
    dataset_statistics,
    generate_tkg,
    load_dataset,
)


class TestConfigValidation:
    def test_too_few_entities_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTKGConfig(num_entities=1)

    def test_too_few_timestamps_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTKGConfig(num_timestamps=2)

    def test_bad_noise_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTKGConfig(noise_fraction=1.5)

    def test_bad_recurrence_rejected(self):
        with pytest.raises(ValueError):
            SyntheticTKGConfig(recurrence=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_communities", 0),
            ("num_communities", -2),
            ("mean_period", -1.0),
            ("mean_period", float("nan")),
            ("chain_probability", 1.5),
            ("chain_probability", float("nan")),
            ("chain_relation_fraction", -0.5),
            ("chain_relation_fraction", 1.01),
        ],
    )
    def test_out_of_range_field_is_refused_by_name(self, field, value):
        # Each used to pass construction and then fail inside numpy
        # (num_communities, mean_period) or be used as given (the chain fields).
        with pytest.raises(ValueError, match=field):
            SyntheticTKGConfig(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("mean_period", 0.0), ("chain_probability", 0.0), ("chain_probability", 1.0),
         ("chain_relation_fraction", 0.0), ("chain_relation_fraction", 1.0)],
    )
    def test_range_ends_are_accepted(self, field, value):
        config = SyntheticTKGConfig(num_timestamps=5, **{field: value})
        assert len(generate_tkg(config).facts)


class TestGenerator:
    def test_deterministic_given_seed(self):
        config = SyntheticTKGConfig(seed=7)
        a = generate_tkg(config)
        b = generate_tkg(config)
        np.testing.assert_array_equal(a.facts, b.facts)

    def test_different_seeds_differ(self):
        a = generate_tkg(SyntheticTKGConfig(seed=1))
        b = generate_tkg(SyntheticTKGConfig(seed=2))
        assert not np.array_equal(a.facts, b.facts)

    def test_every_timestamp_nonempty(self):
        tkg = generate_tkg(SyntheticTKGConfig(seed=0))
        for t in range(SyntheticTKGConfig().num_timestamps):
            assert not tkg.snapshot(t).is_empty

    def test_ids_in_range(self):
        config = SyntheticTKGConfig(seed=3)
        tkg = generate_tkg(config)
        assert tkg.facts[:, [0, 2]].max() < config.num_entities
        assert tkg.facts[:, 1].max() < config.num_relations
        assert tkg.facts[:, 3].max() < config.num_timestamps

    def test_no_duplicate_quadruples(self):
        tkg = generate_tkg(SyntheticTKGConfig(seed=4))
        assert len(tkg.facts) == len(np.unique(tkg.facts, axis=0))

    def test_recurrence_signal_present(self):
        """With high recurrence, many test-time facts repeat history —
        the signal copy-mechanism baselines exploit."""
        tkg = generate_tkg(SyntheticTKGConfig(seed=5, recurrence=0.9, mean_period=1.5))
        times = tkg.timestamps
        cut = times[int(len(times) * 0.8)]
        past = {tuple(f[:3]) for f in tkg.facts[tkg.facts[:, 3] < cut]}
        future = [tuple(f[:3]) for f in tkg.facts[tkg.facts[:, 3] >= cut]]
        repeated = sum(1 for f in future if f in past)
        assert repeated / max(1, len(future)) > 0.3

    def test_chain_signal_present(self):
        """Chained events produce o-s hyperedges across time: the object
        of a chainable fact becomes a subject next step."""
        config = SyntheticTKGConfig(
            seed=6, chain_relation_fraction=1.0, chain_probability=0.9, noise_fraction=0.0
        )
        tkg = generate_tkg(config)
        hits = 0
        total = 0
        for t in range(1, config.num_timestamps):
            prev_objects = set(tkg.snapshot(t - 1).triples[:, 2].tolist())
            subjects = tkg.snapshot(t).triples[:, 0]
            total += len(subjects)
            hits += sum(1 for s in subjects if s in prev_objects)
        assert hits / max(1, total) > 0.3


class TestRegistry:
    def test_all_profiles_load(self):
        for name in DATASET_PROFILES:
            ds = load_dataset(name)
            assert len(ds.train) > len(ds.valid)
            assert len(ds.train) > len(ds.test)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            load_dataset("FREEBASE")

    def test_case_insensitive(self):
        assert load_dataset("yago").name == "YAGO"

    def test_split_is_chronological(self):
        ds = load_dataset("ICEWS14")
        assert ds.train.facts[:, 3].max() < ds.valid.facts[:, 3].min()
        assert ds.valid.facts[:, 3].max() < ds.test.facts[:, 3].min()

    def test_profiles_follow_table5_shape(self):
        """Relative shape of Table V: ICEWS18 has the most entities;
        YAGO/WIKI have far fewer relations than the ICEWS series."""
        sizes = {name: load_dataset(name) for name in DATASET_PROFILES}
        assert sizes["ICEWS18"].num_entities == max(d.num_entities for d in sizes.values())
        assert sizes["YAGO"].num_relations < sizes["ICEWS14"].num_relations
        assert sizes["WIKI"].num_relations < sizes["ICEWS14"].num_relations

    def test_granularity_strings(self):
        assert load_dataset("ICEWS14").graph.granularity == "24 hours"
        assert load_dataset("YAGO").graph.granularity == "1 year"

    def test_scale_grows_dataset(self):
        small = load_dataset("YAGO", scale=1.0)
        big = load_dataset("YAGO", scale=1.5)
        assert big.num_entities > small.num_entities

    def test_seed_override(self):
        a = load_dataset("YAGO", seed=100)
        b = load_dataset("YAGO", seed=101)
        assert not np.array_equal(a.graph.facts, b.graph.facts)

    def test_statistics_keys(self):
        stats = dataset_statistics(load_dataset("WIKI"))
        assert stats["#Datasets"] == "WIKI"
        assert stats["#Training"] > 0
        assert stats["#Granularity"] == "1 year"


@given(
    seed=st.integers(min_value=0, max_value=200),
    recurrence=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=10, deadline=None)
def test_property_generator_always_valid(seed, recurrence):
    """Property: any config yields a structurally valid TKG."""
    config = SyntheticTKGConfig(
        num_entities=20,
        num_relations=4,
        num_timestamps=10,
        events_per_step=15,
        base_pool_size=30,
        recurrence=recurrence,
        seed=seed,
    )
    tkg = generate_tkg(config)
    assert len(tkg) > 0
    assert tkg.facts[:, [0, 2]].max() < 20
    assert tkg.facts[:, 1].max() < 4
