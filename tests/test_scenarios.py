"""Scenario builders: pattern families, block/pair/mean-shift models."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from rrcusum.gaussian import equicorrelation_det
from rrcusum.model import Unit, unit
from rrcusum.scenarios import (
    PRESET_PARAMETERS,
    PRESETS,
    build_preset,
    correlated_block_hypothesis,
    correlated_blocks_model,
    mean_change_hypothesis,
    mean_change_model,
    position_patterns,
    preset_model,
    signed_pair_hypothesis,
    signed_pair_model,
)


def brute_force_patterns(m: int, rho: float) -> set[frozenset]:
    """Enumerate feasible 0/rho edge patterns by eigenvalue check."""
    pairs = list(itertools.combinations(range(m), 2))
    keys = set()
    for mask in range(1, 1 << len(pairs)):
        a = np.eye(m)
        edges = []
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                a[i, j] = a[j, i] = rho
                edges.append((i, j))
        if np.linalg.eigvalsh(a).min() > 1e-12:
            keys.add(frozenset(edges))
    return keys


class TestPositionPatterns:
    @pytest.mark.parametrize(
        "m, rho, count",
        [(2, 0.7, 1), (3, 0.7, 7), (3, 0.95, 4), (4, 0.7, 26)],
    )
    def test_counts(self, m, rho, count):
        assert len(position_patterns(m, rho)) == count

    @pytest.mark.parametrize("m, rho", [(3, 0.7), (3, 0.95), (4, 0.7)])
    def test_matches_brute_force_enumeration(self, m, rho):
        got = set(position_patterns(m, rho))
        assert got == brute_force_patterns(m, rho)

    def test_pattern_laws_carry_requested_entries(self):
        pats = position_patterns(3, 0.7)
        key = frozenset({(0, 1)})
        law = pats[key]
        assert law.cov[0, 1] == 0.7
        assert law.cov[0, 2] == 0.0
        assert law.cov[1, 2] == 0.0

    def test_edits_to_the_patterns_do_not_reach_the_builders(self):
        pats = position_patterns(3, 0.7)
        assert position_patterns(3, 0.7) is not pats
        pats.clear()
        assert len(position_patterns(3, 0.7)) == 7
        model = correlated_blocks_model(5, 3, 0.7)
        assert len(model.post_family[model.units[0]]) == 7
        assert len(correlated_block_hypothesis(model, 0.7, s=4).local_post) == 10

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="m >= 2"):
            position_patterns(1, 0.5)
        with pytest.raises(ValueError, match="m <="):
            position_patterns(7, 0.5)
        with pytest.raises(ValueError, match="rho"):
            position_patterns(3, 0.0)
        with pytest.raises(ValueError, match="rho"):
            position_patterns(3, 1.0)


class TestCorrelatedBlocksModel:
    def test_units_are_all_subsets_in_lex_order(self):
        m = correlated_blocks_model(5, 2, 0.7)
        want = tuple(Unit(c) for c in itertools.combinations(range(1, 6), 2))
        assert m.units == want
        assert len(m.units) == 10
        assert m.units[0] == unit(1, 2)
        assert m.units[-1] == unit(4, 5)

    def test_triples_count(self):
        m = correlated_blocks_model(10, 3, 0.7)
        assert len(m.units) == math.comb(10, 3)
        assert m.units[0] == unit(1, 2, 3)
        assert m.units[-1] == unit(8, 9, 10)

    def test_laws_are_shared_objects(self):
        m = correlated_blocks_model(6, 2, 0.7)
        pres = {id(m.pre_local[E]) for E in m.units}
        fams = {id(m.post_family[E]) for E in m.units}
        assert len(pres) == 1
        assert len(fams) == 1

    def test_hypothesis_laws_are_the_family_members(self):
        m = correlated_blocks_model(7, 3, 0.7)
        h = correlated_block_hypothesis(m, 0.7, s=5)
        members = {id(g) for g in m.post_family[m.units[0]]}
        assert {id(law) for law in h.local_post.values()} <= members

    def test_family_size_matches_pattern_count(self):
        m = correlated_blocks_model(6, 3, 0.95)
        assert len(m.post_family[m.units[0]]) == 4

    def test_rejects_m1(self):
        with pytest.raises(ValueError, match="m >= 2"):
            correlated_blocks_model(5, 1, 0.7)

    @pytest.mark.parametrize("rho", [-0.3, 0.0, 1.0])
    def test_rejects_rho_outside_unit_interval(self, rho):
        # at rho = -0.3 every pattern is positive definite, so only this check
        # keeps the model from running without a valid hypothesis
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\)"):
            correlated_blocks_model(6, 3, rho)


class TestCorrelatedBlockHypothesis:
    def test_pair_affected_count_is_block_pairs(self):
        m = correlated_blocks_model(10, 2, 0.7)
        for s in range(2, 11):
            h = correlated_block_hypothesis(m, 0.7, s=s)
            assert len(h.affected_units) == math.comb(s, 2)

    @pytest.mark.parametrize("s, count", [(2, 8), (3, 22), (4, 40), (5, 60)])
    def test_triple_affected_counts(self, s, count):
        m = correlated_blocks_model(10, 3, 0.7)
        h = correlated_block_hypothesis(m, 0.7, s=s)
        assert len(h.affected_units) == count
        # units with >= 2 block members: choose 2 inside times one outside,
        # plus fully inside triples
        want = math.comb(s, 2) * (10 - s) + math.comb(s, 3)
        assert count == want

    def test_default_block_is_top_sources(self):
        m = correlated_blocks_model(10, 2, 0.95)
        h = correlated_block_hypothesis(m, 0.95, s=4)
        assert h.label == "block{7,8,9,10}@rho=0.95"
        assert unit(7, 8) in h.affected_units
        assert unit(1, 2) not in h.affected_units

    def test_custom_block(self):
        m = correlated_blocks_model(6, 2, 0.7)
        h = correlated_block_hypothesis(m, 0.7, s=0, block=(2, 5))
        assert h.affected_units == frozenset({unit(2, 5)})
        assert h.label == "block{2,5}@rho=0.7"

    def test_partial_overlap_correlates_right_positions(self):
        # block {4,5} inside unit {1,4,5}: positions 1 and 2 correlate, 0 stays free
        m = correlated_blocks_model(5, 3, 0.7)
        h = correlated_block_hypothesis(m, 0.7, s=0, block=(4, 5))
        law = h.local_post[unit(1, 4, 5)]
        assert law.cov[1, 2] == 0.7
        assert law.cov[0, 1] == 0.0
        assert law.cov[0, 2] == 0.0

    def test_full_block_unit_is_equicorrelated(self):
        m = correlated_blocks_model(5, 3, 0.7)
        h = correlated_block_hypothesis(m, 0.7, s=3)
        law = h.local_post[unit(3, 4, 5)]
        off = law.cov[~np.eye(3, dtype=bool)]
        assert np.all(off == 0.7)

    def test_info_number_max_closed_form(self):
        m2 = correlated_blocks_model(10, 2, 0.7)
        h2 = correlated_block_hypothesis(m2, 0.7, s=6)
        assert h2.info_number_max == pytest.approx(
            -0.5 * math.log(equicorrelation_det(2, 0.7)), abs=1e-15
        )
        m3 = correlated_blocks_model(10, 3, 0.95)
        h3 = correlated_block_hypothesis(m3, 0.95, s=6)
        assert h3.info_number_max == pytest.approx(
            -0.5 * math.log(equicorrelation_det(3, 0.95)), abs=1e-15
        )
        # block smaller than the unit caps the correlated coordinates at s
        h3s = correlated_block_hypothesis(m3, 0.95, s=2)
        assert h3s.info_number_max == pytest.approx(
            -0.5 * math.log(equicorrelation_det(2, 0.95)), abs=1e-15
        )

    def test_mixture_mean_invariance_flag(self):
        m2 = correlated_blocks_model(6, 2, 0.7)
        assert correlated_block_hypothesis(m2, 0.7, s=3).mixture_mean_invariant is True
        m3 = correlated_blocks_model(6, 3, 0.7)
        assert correlated_block_hypothesis(m3, 0.7, s=3).mixture_mean_invariant is None

    def test_rejects_bad_block(self):
        m = correlated_blocks_model(6, 2, 0.7)
        with pytest.raises(ValueError, match="s must lie"):
            correlated_block_hypothesis(m, 0.7, s=1)
        with pytest.raises(ValueError, match="two distinct"):
            correlated_block_hypothesis(m, 0.7, s=0, block=(3,))
        with pytest.raises(ValueError, match="outside"):
            correlated_block_hypothesis(m, 0.7, s=0, block=(5, 7))

    @pytest.mark.parametrize("rho", [-0.7, -0.3, 0.0, 1.0])
    def test_rejects_rho_outside_unit_interval(self, rho):
        # at m = 3 and rho = -0.7 the fully correlated pattern of a unit is not
        # positive definite, so no post-change law exists for it
        m = correlated_blocks_model(6, 3, 0.5)
        with pytest.raises(ValueError, match="rho must lie in"):
            correlated_block_hypothesis(m, rho, s=4)


class TestSignedPairs:
    def test_model_family_holds_both_signs(self):
        m = signed_pair_model(6, 0.7)
        fam = m.post_family[m.units[0]]
        assert len(fam) == 2
        signs = sorted(law.cov[0, 1] for law in fam)
        assert signs == [-0.7, 0.7]

    def test_default_pair_and_label(self):
        m = signed_pair_model(10, 0.7)
        h = signed_pair_hypothesis(m, 0.7)
        assert h.affected_units == frozenset({unit(9, 10)})
        assert h.label == "pair{9,10}@rho=0.7"
        assert h.mixture_mean_invariant is True

    def test_negative_sign(self):
        m = signed_pair_model(6, 0.7)
        h = signed_pair_hypothesis(m, 0.7, pair=(2, 4), sign=-1)
        law = h.local_post[unit(2, 4)]
        assert law.cov[0, 1] == -0.7
        assert h.label == "pair{2,4}@rho=-0.7"

    def test_info_number_max(self):
        m = signed_pair_model(6, 0.7)
        h = signed_pair_hypothesis(m, 0.7)
        assert h.info_number_max == pytest.approx(-0.5 * math.log(1 - 0.49), abs=1e-15)

    def test_rejects_bad_arguments(self):
        m = signed_pair_model(6, 0.7)
        with pytest.raises(ValueError, match="sign"):
            signed_pair_hypothesis(m, 0.7, sign=2)
        with pytest.raises(ValueError, match="not a unit"):
            signed_pair_hypothesis(m, 0.7, pair=(1, 7))
        with pytest.raises(ValueError, match="rho"):
            signed_pair_model(6, 1.2)
        with pytest.raises(ValueError, match="rho must lie in"):
            signed_pair_hypothesis(m, 0.0)


class TestMeanChange:
    def test_model_has_one_unit_per_source(self):
        m = mean_change_model(5, 1.0)
        assert m.units == tuple(unit(k) for k in range(1, 6))
        assert m.m == 1

    def test_mapping_mu(self):
        m = mean_change_model(3, {1: 0.5, 2: 1.0, 3: 2.0})
        assert m.post_family[unit(3)][0].mean[0] == 2.0

    def test_signed_family(self):
        m = mean_change_model(3, 1.0, signed=True)
        fam = m.post_family[unit(1)]
        assert len(fam) == 2
        assert sorted(law.mean[0] for law in fam) == [-1.0, 1.0]

    def test_rejects_zero_shift(self):
        with pytest.raises(ValueError, match="nonzero"):
            mean_change_model(3, 0.0)

    @pytest.mark.parametrize("signed", [False, True])
    def test_one_family_per_distinct_shift(self, signed):
        m = mean_change_model(6, {1: 0.5, 2: 1.0, 3: 0.5, 4: 1.0, 5: 0.5, 6: 2.0}, signed=signed)
        fams = {E.sources[0]: m.post_family[E] for E in m.units}
        assert len({id(f) for f in fams.values()}) == 3
        assert fams[1] is fams[3] is fams[5] and fams[2] is fams[4]
        h = mean_change_hypothesis(m, (1, 2, 3, 4), {1: -0.5, 2: -1.0, 3: -0.5, 4: -1.0})
        assert h.local_post[unit(1)] is h.local_post[unit(3)]
        assert h.local_post[unit(1)] is not h.local_post[unit(2)]
        assert [h.local_post[unit(k)].mean[0] for k in (1, 2, 3, 4)] == [-0.5, -1.0, -0.5, -1.0]

    def test_hypothesis_label_and_info(self):
        m = mean_change_model(10, 1.0)
        h = mean_change_hypothesis(m, (9, 10), 1.0)
        assert h.label == "mean-shift[9, 10]"
        assert h.info_number_max == pytest.approx(0.5)
        assert h.mixture_mean_invariant is True
        assert h.affected_units == frozenset({unit(9), unit(10)})

    def test_heterogeneous_shifts_take_largest_info(self):
        m = mean_change_model(3, {1: 1.0, 2: 2.0, 3: 1.0})
        h = mean_change_hypothesis(m, (1, 2), {1: 1.0, 2: 2.0})
        assert h.info_number_max == pytest.approx(2.0)

    def test_sign_flip(self):
        m = mean_change_model(3, 1.0, signed=True)
        h = mean_change_hypothesis(m, (1,), -1.0)
        assert h.local_post[unit(1)].mean[0] == -1.0

    def test_rejects_bad_arguments(self):
        m = mean_change_model(3, 1.0)
        with pytest.raises(ValueError, match="at least one"):
            mean_change_hypothesis(m, (), 1.0)
        with pytest.raises(ValueError, match="not sampled"):
            mean_change_hypothesis(m, (5,), 1.0)


class TestBuildPreset:
    @pytest.mark.parametrize("name", PRESETS)
    def test_all_presets_build(self, name):
        model, hyp = build_preset(name)
        assert model.K == 10
        assert hyp.affected_units <= frozenset(model.units)

    def test_corr_pairs_defaults(self):
        model, hyp = build_preset("corr-pairs")
        assert model.m == 2
        assert len(model.units) == math.comb(10, 2)
        assert len(hyp.affected_units) == 1

    def test_k_and_s_flow_through(self):
        model, hyp = build_preset("corr-pairs", K=6, s=4)
        assert model.K == 6
        assert len(hyp.affected_units) == math.comb(4, 2)

    def test_mean_change_preset(self):
        model, hyp = build_preset("mean-change", K=4, s=2, mu=1.5)
        assert model.m == 1
        assert hyp.affected_units == frozenset({unit(3), unit(4)})
        assert hyp.info_number_max == pytest.approx(0.5 * 1.5**2)

    @pytest.mark.parametrize("s", [0, 5])
    def test_mean_change_rejects_block_outside_sources(self, s):
        with pytest.raises(ValueError, match=r"s must lie in \[1, K\]"):
            build_preset("mean-change", K=4, s=s)

    def test_corr_pairs_rejects_block_of_one(self):
        with pytest.raises(ValueError, match=r"s must lie in \[2, K\]"):
            build_preset("corr-pairs", s=1)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            build_preset("nope")

    @pytest.mark.parametrize("name", PRESETS)
    @pytest.mark.parametrize("key, value", [("K", 8), ("m", 3), ("rho", 0.5), ("s", 4), ("mu", 2.0)])
    def test_parameter_table_names_what_each_preset_reads(self, name, key, value):
        def fingerprint(model, hyp):
            affected = sorted(hyp.affected_units)
            return (
                model.units,
                [model.unit_class(E).key for E in model.units],
                affected,
                [model.unit_class(E, hyp.local_post[E]).key for E in affected],
            )

        base = fingerprint(*build_preset(name))
        changed = fingerprint(*build_preset(name, **{key: value}))
        assert (changed != base) == (key in PRESET_PARAMETERS[name])

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_model_is_the_model_of_build_preset(self, name):
        kw = dict(K=6, rho=0.5, mu=2.0)
        model = preset_model(name, **kw)
        built, _ = build_preset(name, **kw)
        assert model.units == built.units
        assert [model.unit_class(E).key for E in model.units] == [built.unit_class(E).key for E in built.units]
