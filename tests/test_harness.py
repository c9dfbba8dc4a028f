import csv
import dataclasses
import sys
import threading
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from alcc_lab import cli, codec, dft_code, harness, numeric, threat
from alcc_lab.harness import (
    TRIAL_CSV_HEADER,
    run_trial,
    trial_seeds,
    write_sweep_csv,
)
from alcc_lab.numeric import ParameterError
from alcc_lab.scenario import Scenario, SweepSpec, load_config
from test_dft_code import C_VALUE_RECOVERY, EPS
from test_localization import per_subset_joint_localize

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
# the choices of two Scenario fields, read from their Literal annotations
LOCALIZATION_MODES = typing.get_args(typing.get_type_hints(Scenario)["localization"])
BASE_MATRIX_MODES = typing.get_args(typing.get_type_hints(Scenario)["base_matrix"])


def clean_scenario(**overrides):
    defaults = dict(
        sigma_pad=1e2,
        precision_mode="synthetic",
        precision_var=0.0,
        byzantine_count=0,
        trials=3,
        master_seed=11,
    )
    defaults.update(overrides)
    return Scenario(**defaults)


class TestScenario:
    def test_derived_code_parameters(self):
        sc = Scenario()
        assert sc.code_dimension == 15
        assert sc.capability == 8
        assert sc.output_entries == 25

    def test_validation(self):
        with pytest.raises(ParameterError):
            Scenario(localization="psychic")
        with pytest.raises(ParameterError):
            Scenario(unreliable=(0, 0, 1))
        with pytest.raises(ParameterError):
            Scenario(byzantine_count=3, unreliable=(0, 1))

    @pytest.mark.parametrize("field,value", [
        ("unreliable", ()),
        ("precision_mode", "exact"),
        ("precision_var", -1e-3),
        ("noise_var", -1.0),
        ("weak_zero_prob", 0.0),
        ("weak_zero_prob", 1.0),
        ("rank_rel_tol", 0.0),
        ("rank_rel_tol", 1.5),
        ("constraint_length", 0),
        ("trials", 0),
        # each below used to build and then fail inside run_trial: negative
        # dimensions, a zero reference, non-finite returns, a negative seed
        ("byzantine_count", -1),
        ("input_rows", 0),
        ("input_cols", 0),
        ("beta", float("nan")),
        ("beta", float("inf")),
        ("sigma_pad", float("inf")),
        ("noise_mean_re", float("nan")),
        ("noise_mean_im", float("inf")),
        ("noise_var", float("inf")),
        ("precision_var", float("inf")),
        ("master_seed", -1),
        # a bool scale used to build, a complex or str one to raise a bare TypeError
        ("beta", True), ("sigma_pad", 1j), ("noise_mean_re", "1.0"),
    ])
    def test_invalid_field_rejected_by_name(self, field, value):
        with pytest.raises(ParameterError, match=field):
            Scenario(**{field: value})

    @pytest.mark.parametrize("field,value", [
        # each used to build, write the CSV header, then fail in its first trial
        ("trials", 2.5), ("master_seed", 1.5), ("byzantine_count", 1.0), ("k", 3.0),
        ("input_rows", 2.0),
        # used to run silently
        ("constraint_length", 2.5),
        # used to build an encoding whose 1e6 / sqrt(t) overflows in float16
        ("t", True),
        ("n_workers", 31.0), ("input_cols", False), ("trials", "3"),
    ])
    def test_non_integer_field_rejected_by_name(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} must be an integer, got"):
            Scenario(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("unreliable", (0, 2.0, 5)), ("unreliable", (True, 4)),
        ("byzantine_locations", (1.0, 3)), ("byzantine_locations", (False, 3)),
        ("unreliable", [0, 2.5]),
    ])
    def test_non_integer_index_rejected_by_name(self, field, value):
        with pytest.raises(ParameterError, match=f"^{field} index must be an integer, got"):
            Scenario(byzantine_count=2, **{field: value})

    def test_numpy_integers_accepted(self):
        sc = Scenario(n_workers=np.int64(11), k=np.int32(2), t=1, trials=np.int64(2),
                      byzantine_count=np.int64(2), unreliable=(np.int64(1), 3, 5))
        assert sc.capability == Scenario(n_workers=11, k=2, t=1).capability
        assert sc.pool_array().tolist() == [1, 3, 5]

    @pytest.mark.parametrize("numpy_fields,plain_fields", [
        (dict(byzantine_count=np.int64(2)), dict(byzantine_count=2)),
        (dict(unreliable=[0, 1, 2, 3]), dict(unreliable=(0, 1, 2, 3))),
        (dict(unreliable=np.array([3, 1, 2, 0])), dict(unreliable=(3, 1, 2, 0))),
        (dict(byzantine_locations=[np.int32(2), 0]), dict(byzantine_locations=(2, 0))),
        (dict(beta=np.float64(1.25), noise_var=np.float32(0.5), precision_var=0),
         dict(beta=1.25, noise_var=0.5, precision_var=0.0)),
        (dict(function=np.str_("identity"), decoder=np.True_),
         dict(function="identity", decoder=True)),
        (dict(constraint_length=np.uint8(3)), dict(constraint_length=3)),
    ])
    def test_numpy_scalars_and_lists_equal_their_plain_twins(self, numpy_fields, plain_fields):
        # each pair used to differ in digest, or not compare equal, or not hash
        base = dict(n_workers=11, k=2, t=1, byzantine_count=2)
        got = Scenario(**{**base, **numpy_fields})
        want = Scenario(**{**base, **plain_fields})
        assert got == want and hash(got) == hash(want)
        assert got.digest() == want.digest()
        for name in plain_fields:
            assert type(getattr(got, name)) is type(getattr(want, name))

    def test_plain_values_stored_as_given(self):
        # the digest hashes each field's repr, so the pool keeps its order
        beta = 1.25
        sc = Scenario(n_workers=11, k=2, t=2, unreliable=(6, 0, 2, 4), beta=beta)
        assert sc.unreliable == (6, 0, 2, 4) and sc.beta is beta

    def test_non_integer_trials_fail_before_the_csv_is_written(self, tmp_path):
        out = tmp_path / "trials.csv"
        with pytest.raises(ParameterError, match="trials"):
            write_sweep_csv(Scenario(trials=2.5, byzantine_count=1), SweepSpec(), out)
        assert not out.exists()

    def test_non_integer_axis_value_fails_before_the_csv_is_written(self, tmp_path):
        out = tmp_path / "trials.csv"
        with pytest.raises(ParameterError, match="byzantine_count"):
            write_sweep_csv(clean_scenario(), SweepSpec(byzantine_counts=(1, 2.0)), out)
        assert not out.exists()

    @pytest.mark.parametrize("value", ["no", "", 1, 0, None])
    def test_non_bool_decoder_rejected_by_name(self, value):
        # a truthy string used to build and decode with strategy independent
        with pytest.raises(ParameterError, match="^decoder must be a bool, got"):
            Scenario(decoder=value)

    @pytest.mark.parametrize("value", [np.True_, np.False_])
    def test_numpy_bool_decoder_stored_as_bool(self, value):
        sc = Scenario(decoder=value)
        assert type(sc.decoder) is bool and sc.decoder == bool(value)
        assert sc.digest() == Scenario(decoder=bool(value)).digest()

    def test_decoder_needs_code_dimension_below_n_workers(self):
        # gram doubles the degree: k=1, t=1 give a code dimension of 3 = N
        with pytest.raises(ParameterError, match=r"decoder.*n_workers=3.*k=1, t=1"):
            Scenario(n_workers=3, k=1, t=1)
        assert Scenario(n_workers=3, k=1, t=1, decoder=False).capability == 0
        # capability 0 (K = N-1) decodes: every count is zero, nothing is corrected
        sc = Scenario(n_workers=4, k=1, t=1, sigma_pad=1.0, precision_var=0.0)
        assert sc.capability == 0
        assert run_trial(sc, seed=1).loc_correct

    def test_locations_must_match_count(self):
        with pytest.raises(ParameterError, match="byzantine_count"):
            Scenario(byzantine_count=3, byzantine_locations=(0, 4))
        with pytest.raises(ParameterError, match="byzantine_count"):
            Scenario(byzantine_count=0, byzantine_locations=(0,))

    def test_locations_must_lie_in_unreliable_pool(self):
        with pytest.raises(ParameterError, match="unreliable pool"):
            Scenario(unreliable=(0, 1, 2, 3), byzantine_count=2,
                     byzantine_locations=(1, 5))
        sc = Scenario(unreliable=(0, 1, 2, 3), byzantine_count=2,
                      byzantine_locations=(3, 1))
        assert sc.byzantine_locations == (3, 1)

    def test_digest_stable_and_trial_invariant(self):
        a = Scenario(master_seed=1, trials=10)
        b = Scenario(master_seed=1, trials=999)
        c = Scenario(master_seed=2, trials=10)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()

    @pytest.mark.parametrize("source,expected", [
        ("default", "f8fd6fcd4115"),
        ("byzantine_sweep.cfg", "9208d8181b45"),
        ("collusion_sweep.cfg", "3659f42e4d1b"),
        ("joint_vs_independent.cfg", "139f1edb4abc"),
        ("unreliable pool", "b9f01985ef0f"),
    ])
    def test_digest_is_pinned(self, source, expected):
        # the trial and aggregate CSVs carry the digest, so it must not drift
        if source == "default":
            sc = Scenario()
        elif source == "unreliable pool":
            sc = Scenario(n_workers=11, k=2, t=2, unreliable=(6, 0, 2, 4),
                          byzantine_count=2, byzantine_locations=(4, 2),
                          localization="restricted")
        else:
            # pinned when the configs left master_seed at its default of 0;
            # their own seeds are pinned below
            sc, _ = load_config(CONFIG_DIR / source)
            sc = sc.with_updates(master_seed=0)
        assert sc.digest() == expected

    @pytest.mark.parametrize("source,expected", [
        ("byzantine_sweep.cfg", "c0c0155e6df8"),
        ("collusion_sweep.cfg", "2a007ca8e7d5"),
        ("joint_vs_independent.cfg", "705cabc7fdcb"),
    ])
    def test_config_digest_at_its_own_seed_is_pinned(self, source, expected):
        # what `simulate` writes; byzantine_sweep's first grid point is the
        # base scenario, so its sweep CSV carries this digest too
        sc, _ = load_config(CONFIG_DIR / source)
        assert sc.digest() == expected

    def test_candidate_pool_resolution(self):
        assert Scenario().pool_array().tolist() == list(range(31))
        sc = Scenario(unreliable=(4, 2, 9))
        assert sc.pool_array().tolist() == [2, 4, 9]

    def test_pool_array_is_the_sorted_pool_read_only(self):
        sc = Scenario(unreliable=(4, 2, 9))
        pool = sc.pool_array()
        assert pool.tolist() == [2, 4, 9] and pool.dtype == int
        assert sc.pool_array() is pool
        with pytest.raises(ValueError):
            pool[0] = 3
        assert Scenario().pool_array().tolist() == list(range(31))


class TestRunTrial:
    def test_clean_pipeline_is_accurate(self):
        record = run_trial(clean_scenario(), seed=7)
        assert record.e_rel <= 1e-6
        assert record.loc_correct
        assert not record.capability_exceeded

    def test_decoder_nullifies_byzantine_noise(self):
        sc = clean_scenario(byzantine_count=4, precision_var=1e-10)
        base = run_trial(clean_scenario(precision_var=1e-10), seed=3)
        record = run_trial(sc, seed=3)
        assert record.loc_correct
        assert record.e_rel <= 10 * base.e_rel

    def test_no_decoder_leaves_damage(self):
        sc = clean_scenario(byzantine_count=4, decoder=False)
        record = run_trial(sc, seed=5)
        assert record.strategy == "none"
        assert record.e_rel > 1.0

    def test_capability_exceeded_flag(self):
        sc = clean_scenario(byzantine_count=9, precision_var=1e-10)
        record = run_trial(sc, seed=9)
        assert record.capability_exceeded
        assert not record.loc_correct

    def test_rank_mode_matches_oracle_in_clean_regime(self):
        oracle = run_trial(clean_scenario(byzantine_count=3), seed=21)
        ranked = run_trial(
            clean_scenario(byzantine_count=3, error_count_mode="rank"), seed=21
        )
        assert ranked.loc_correct
        assert np.isclose(ranked.e_rel, oracle.e_rel)

    def test_replay_determinism(self):
        sc = clean_scenario(byzantine_count=2, precision_var=1e-8)
        one = run_trial(sc, seed=77)
        two = run_trial(sc, seed=77)
        assert one.e_rel == two.e_rel
        assert one.csv_row() == two.csv_row()

    @pytest.mark.parametrize("localization", ["independent", "joint"])
    def test_cached_constants_do_not_change_records(self, localization):
        def fields(record):
            return dataclasses.replace(record, wall_time=0.0)

        overrides = dict(byzantine_count=3, precision_var=1e-8, localization=localization)
        before = [fields(run_trial(clean_scenario(**overrides), seed)) for seed in (3, 4)]
        codec._share_basis.cache_clear()
        dft_code.build_code.cache_clear()
        after = [fields(run_trial(clean_scenario(**overrides), seed)) for seed in (3, 4)]
        assert after == before

    def test_restricted_strategy_stays_in_pool(self):
        pool = (0, 3, 6, 9, 12, 15, 18, 21)
        sc = clean_scenario(
            byzantine_count=2,
            unreliable=pool,
            localization="restricted",
            precision_mode="locator",
            precision_var=0.5,
        )
        record = run_trial(sc, seed=13)
        assert record.strategy == "restricted"

    @pytest.mark.parametrize("localization,constraint_length", [
        ("independent", None), ("restricted", None), ("joint", 8), ("joint", None),
    ])
    def test_rank_counts_fit_a_small_pool(self, monkeypatch, localization, constraint_length):
        # at this noise the Hankel rank reads up to v = 8 errors, twice the pool
        pool = (0, 5, 10, 15)
        sc = Scenario(n_workers=31, k=5, t=3, sigma_pad=1.0, unreliable=pool,
                      byzantine_count=2, error_count_mode="rank", precision_var=1e-6,
                      localization=localization, constraint_length=constraint_length)
        seen = []

        def spy(scenario, code, syndromes, counts, rng):
            seen.append(counts.max())
            return locators(scenario, code, syndromes, counts, rng)

        locators = harness._locators
        monkeypatch.setattr(harness, "_locators", spy)
        records = [run_trial(sc, seed) for seed in range(5)]
        assert all(np.isfinite(r.e_rel) for r in records)
        if localization == "independent":
            # it searches all N indices, so its counts stay as estimated
            assert max(seen) > len(pool)
        else:
            assert max(seen) == len(pool)

    def test_locator_noise_is_one_draw_equal_to_a_draw_per_codeword(self):
        """The trial's one locator-noise draw gives the values, and leaves the
        generator in the state, of one `complex_normal` call per codeword of
        positive count, in codeword order."""
        sc = clean_scenario(byzantine_count=4, precision_mode="locator", precision_var=0.05)
        code = dft_code.build_code(sc.n_workers, sc.code_dimension)
        counts = np.array([2, 0, 4, 4, 1, 0, 3, 1])
        s = threat.complex_normal(np.random.default_rng(1), 0.0, 1.0, (8, code.n - code.k))
        rng, loop_rng = np.random.default_rng(2), np.random.default_rng(2)
        coeffs = harness._locators(sc, code, s, counts, rng)
        expected = harness._locators(dataclasses.replace(sc, precision_var=0.0), code, s, counts,
                                     loop_rng)
        for c in np.flatnonzero(counts):
            expected[c, : counts[c] + 1] += threat.complex_normal(loop_rng, 0.0, 0.05, counts[c] + 1)
        assert np.array_equal(coeffs, expected)
        assert (coeffs[counts == 0] == 0).all()
        assert rng.bit_generator.state == loop_rng.bit_generator.state

    def test_joint_strategy_runs_with_weak_bases(self):
        sc = clean_scenario(
            byzantine_count=4,
            base_matrix="weak",
            weak_zero_prob=0.4,
            localization="joint",
            constraint_length=4,
            precision_mode="locator",
            precision_var=0.01,
        )
        record = run_trial(sc, seed=15)
        assert np.isfinite(record.e_rel)


class TestDecode:
    def test_oracle_counts_need_true_counts(self):
        sc = clean_scenario(byzantine_count=2)
        with pytest.raises(ParameterError, match="true_counts"):
            harness.decode(sc, np.ones((3, sc.n_workers), dtype=complex), np.random.default_rng(0))

    @pytest.mark.parametrize("mode", ["oracle", "rank"])
    @pytest.mark.parametrize("localization", LOCALIZATION_MODES)
    def test_empty_stack_decodes_to_itself(self, mode, localization):
        sc = clean_scenario(byzantine_count=2, error_count_mode=mode, localization=localization,
                            unreliable=(0, 1, 2, 3, 4))
        received = np.zeros((0, sc.n_workers), dtype=complex)
        true_counts = np.zeros(0, dtype=int) if mode == "oracle" else None
        corrected, groups = harness.decode(sc, received, np.random.default_rng(0), true_counts)
        assert corrected is received and groups == []

    @pytest.mark.parametrize("mode", ["oracle", "rank"])
    @pytest.mark.parametrize("base_matrix", ["all-one", "weak"])
    def test_received_is_left_as_it_was_and_never_returned(self, mode, base_matrix):
        """The one-group path reads the received words and the solves' own
        arrays in place; the corrected words are still a new array."""
        # N = 11 gives v = 2: under all-one bases every codeword has count v
        sc = clean_scenario(n_workers=11, k=3, t=1, byzantine_count=2, base_matrix=base_matrix,
                            weak_zero_prob=0.3, error_count_mode=mode, input_cols=4)
        for seed_ in range(5):
            rng = np.random.default_rng(seed_)
            blocks = rng.standard_normal((sc.k, sc.input_rows, sc.input_cols))
            shares = codec.encode_shares(codec.make_batch(sc.encoding(), blocks, rng),
                                         sc.encoding())
            results = codec.FUNCTIONS[sc.function].apply(shares)
            returns, _, b_eff = harness._threat(sc, results, rng)
            received = returns.reshape(sc.n_workers, -1).T  # (M, N), as a trial passes it
            before = received.copy()
            corrected, groups = harness.decode(sc, received, rng, b_eff.sum(axis=1))
            assert groups
            if base_matrix == "all-one" and mode == "oracle":
                assert groups[0][0] == slice(None)
            assert received.tobytes() == before.tobytes()
            assert not np.shares_memory(corrected, received)

    @staticmethod
    def joint_round(rng, n, base_matrix, mode, restricted, thinned):
        """A joint scenario, its code, noisy received words (M, N) and true counts.

        The pool size, error count, locations, codewords and noise are drawn;
        N=11 and N=15 give capabilities 4 and 6, so the reference's per-subset
        loop stays fast.
        """
        pool = None
        if restricted:
            pool = tuple(sorted(rng.choice(n, size=int(rng.integers(n // 2, n)), replace=False)))
        sc = Scenario(
            n_workers=n, k=2, t=1, input_cols=3, unreliable=pool,
            byzantine_count=int(rng.integers(2, (n - 3) // 2 + 1)),
            base_matrix=base_matrix, weak_zero_prob=0.4,
            precision_mode="locator", precision_var=0.05,
            error_count_mode=mode, localization="joint",
            constraint_length=int(rng.integers(3, 7)) if thinned else None,
        )
        code = dft_code.build_code(n, sc.code_dimension)
        locations, b_eff = chain_build_plan(sc, rng)
        messages = threat.complex_normal(rng, 0.0, 1.0, (sc.output_entries, code.k))
        received = messages @ code.generator
        received += threat.complex_normal(rng, 0.0, 1e-6, received.shape)
        received[:, locations] += threat.complex_normal(rng, 10.0, 1.0, b_eff.shape) * b_eff
        return sc, code, received, b_eff.sum(axis=1)

    @pytest.mark.parametrize("n", [11, 15])
    @pytest.mark.parametrize("base_matrix", BASE_MATRIX_MODES)
    @pytest.mark.parametrize("mode", ["oracle", "rank"])
    def test_joint_groups_match_the_reference_search(self, n, base_matrix, mode):
        """Under joint localization `decode` detects, in each codeword, what the
        per-subset reference search picks for that codeword's locator, grouped
        by set size, and leaves its rng where the reference leaves its own."""
        rng = np.random.default_rng([27, n, BASE_MATRIX_MODES.index(base_matrix), mode == "rank"])
        for restricted, thinned in [(False, False), (False, True), (True, False), (True, True)]:
            sc, code, received, true_counts = self.joint_round(
                rng, n, base_matrix, mode, restricted, thinned)
            seed_ = int(rng.integers(2**32))
            decode_rng, ref_rng = np.random.default_rng(seed_), np.random.default_rng(seed_)
            corrected, groups = harness.decode(sc, received, decode_rng, true_counts)

            syndromes = dft_code.syndrome(code, received)
            if mode == "oracle":
                counts = np.minimum(true_counts, code.capability)
            else:
                counts = np.minimum(
                    dft_code.estimate_error_count(code, syndromes, rel_tol=sc.rank_rel_tol),
                    len(sc.pool_array()))
            coeffs = harness._locators(sc, code, syndromes, counts, ref_rng)
            picks, sizes = {}, np.zeros_like(counts)
            active = np.flatnonzero(counts)
            if active.size:
                _, per_poly, _ = per_subset_joint_localize(
                    coeffs[active], counts[active], code.capability, n, sc.constraint_length,
                    sc.unreliable, ref_rng)
                for c, found in zip(active.tolist(), per_poly):
                    picks[c], sizes[c] = found, found.size
            codewords = np.arange(counts.size)
            expected = [(codewords[rows], np.stack([picks[c] for c in codewords[rows]]))
                        for _, rows in harness._groups(sizes)]

            assert len(groups) == len(expected)
            for (rows, found), (ref_rows, ref_found) in zip(groups, expected):
                assert np.array_equal(codewords[rows], ref_rows)
                assert found.dtype == ref_found.dtype
                assert np.array_equal(found, ref_found)
            assert np.array_equal(
                corrected, harness._correct_codewords(code, received, syndromes, expected))
            assert decode_rng.bit_generator.state == ref_rng.bit_generator.state


def chain_build_plan(scenario, rng):
    """The trial's Byzantine locations and effective base, as run_trial drew them
    through `_build_plan` before its threat stage: the reference."""
    a = scenario.byzantine_count
    if a == 0:
        return None, np.zeros((scenario.output_entries, 0), dtype=int)
    pool = scenario.pool_array()
    if scenario.byzantine_locations is not None:
        locations = np.sort(np.asarray(scenario.byzantine_locations, dtype=int))
    else:
        locations = np.sort(rng.choice(pool, size=a, replace=False))
    m_rows = scenario.output_entries
    if scenario.base_matrix == "all-one":
        b_eff = np.ones((m_rows, a), dtype=int)
    elif scenario.base_matrix == "strong":
        b_eff = threat.design_strong_collusion(m_rows, a, rng)
    else:
        b_eff = threat.design_weak_collusion(m_rows, a, scenario.weak_zero_prob, rng)
    return locations, b_eff


def chain_threat(scenario, results, rng):
    """`_build_plan`, then `plan_from_effective_base`, then `inject`: the reference."""
    u, h = results.shape[1:]
    locations, b_eff = chain_build_plan(scenario, rng)
    plan = None
    if locations is not None:
        plan = threat.plan_from_effective_base(
            b_eff, locations.tolist(), u, h,
            noise_mean=scenario.noise_mean, noise_var=scenario.noise_var,
        )
    returns = threat.inject(results, plan, scenario.precision_mode, scenario.precision_var, rng)
    if locations is None:
        locations = np.zeros(0, dtype=int)
    return returns, locations, b_eff


@st.composite
def threat_scenarios(draw):
    """Scenarios over every base and precision mode, A from 0 to the pool size,
    fixed and drawn locations, noise variances of 0 among them."""
    n = draw(st.integers(2, 16))
    unreliable = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1,
                                           max_size=n, unique=True).map(tuple))
    pool = list(range(n)) if unreliable is None else list(unreliable)
    count = draw(st.integers(0, len(pool)))
    locations = None
    if count and draw(st.booleans()):
        locations = tuple(draw(st.permutations(pool))[:count])
    return Scenario(
        n_workers=n, k=1, t=0, decoder=False,
        function=draw(st.sampled_from(("gram", "identity"))),
        input_rows=draw(st.integers(1, 4)), input_cols=draw(st.integers(1, 4)),
        unreliable=unreliable, byzantine_count=count, byzantine_locations=locations,
        base_matrix=draw(st.sampled_from(BASE_MATRIX_MODES)),
        weak_zero_prob=draw(st.floats(0.05, 0.95)),
        noise_mean_re=draw(st.sampled_from([10.0, 0.0, -0.0, -2.5])),
        noise_mean_im=draw(st.sampled_from([0.0, -0.0, 3.0])),
        noise_var=draw(st.sampled_from([0.0, 1e-300, 1.0, 1e3])),
        precision_mode=draw(st.sampled_from(("synthetic", "locator", "reduced"))),
        precision_var=draw(st.sampled_from([0.0, 1e-12, 0.005, 1.0])),
    )


class TestThreatStage:
    """The trial's threat stage: locations, effective base and noisy returns."""

    @given(sc=threat_scenarios(), seed_=st.integers(0, 2**32 - 1))
    @example(sc=Scenario(n_workers=5, k=1, t=0, decoder=False, byzantine_count=5,
                         noise_var=0.0, precision_var=0.0), seed_=1)
    @example(sc=Scenario(n_workers=5, k=1, t=0, decoder=False, byzantine_count=0,
                         precision_var=0.5), seed_=2)
    @seed(20261020)
    @settings(max_examples=200, deadline=None)
    def test_bytes_match_the_plan_and_inject_chain(self, sc, seed_):
        """The same returns, locations, base and stream as `_build_plan`, then
        `plan_from_effective_base`, then `inject`."""
        aux = np.random.default_rng(seed_)
        u, h = (sc.input_cols, sc.input_cols) if sc.function == "gram" else (
            sc.input_rows, sc.input_cols)
        results = aux.standard_normal((sc.n_workers, u, h)) + 1j * aux.standard_normal(
            (sc.n_workers, u, h))
        results.flags.writeable = False  # as a trial's shared prefix keeps them
        got_rng, ref_rng = np.random.default_rng(seed_ + 1), np.random.default_rng(seed_ + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a strong base of one colluder warns
            got = harness._threat(sc, results, got_rng)
            want = chain_threat(sc, results, ref_rng)
        for g, w in zip(got, want):
            assert (g.dtype, g.shape) == (w.dtype, w.shape)
            assert g.tobytes() == w.tobytes()
        assert got_rng.bytes(16) == ref_rng.bytes(16)
        assert not np.shares_memory(got[0], results)


def group_loc_correct(groups, locations, b_eff):
    """`harness._loc_correct` with the true counts of the base, as a trial passes them."""
    return harness._loc_correct(groups, locations, b_eff, b_eff.sum(axis=1))


def mask_loc_correct(groups, locations, b_eff, n):
    """loc_correct from (M, N) detected and true masks: the reference."""
    m_rows = b_eff.shape[0]
    detected = np.zeros((m_rows, n), dtype=bool)
    for rows, found in groups:
        detected[np.arange(m_rows)[rows, None], found] = True
    truth = np.zeros_like(detected)
    truth[:, locations] = b_eff.astype(bool)
    return np.array_equal(detected, truth)


class TestLocCorrect:
    @staticmethod
    def detections(rng, n, locations, b_eff, fault):
        """Per row, its true support with at most one fault: an index added, one
        dropped, one swapped for another, or the row emptied."""
        sets = []
        for row in b_eff.astype(bool):
            found = set(locations[row].tolist())
            if fault and rng.random() < 0.3:
                kind = rng.integers(4)
                outside = sorted(set(range(n)) - found)
                if kind == 0 and outside:  # a count too high
                    found.add(int(rng.choice(outside)))
                elif kind == 1 and found:  # a count too low
                    found.discard(int(rng.choice(sorted(found))))
                elif kind == 2 and found and outside:  # the right count, a wrong index
                    found.discard(int(rng.choice(sorted(found))))
                    found.add(int(rng.choice(outside)))
                elif kind == 3:
                    found = set()
            sets.append(sorted(found))
        return sets

    @staticmethod
    def as_groups(sets):
        """(rows, found) per detected-set size, as `decode` returns them."""
        sizes = np.array([len(s) for s in sets], dtype=int)
        return [(rows, np.array([sets[r] for r in np.arange(len(sets))[rows]], dtype=np.intp))
                for _, rows in harness._groups(sizes)]

    @given(n=st.integers(1, 16), m_rows=st.integers(1, 12),
           base=st.sampled_from(("all-one", "strong", "weak", "zero")),
           fault=st.booleans(), seed_=st.integers(0, 2**32 - 1))
    @seed(20261020)
    @settings(max_examples=300, deadline=None)
    def test_group_form_matches_the_mask_form(self, n, m_rows, base, fault, seed_):
        rng = np.random.default_rng(seed_)
        a = int(rng.integers(0, n + 1))
        locations = np.sort(rng.choice(n, size=a, replace=False))
        if base == "all-one":
            b_eff = np.ones((m_rows, a), dtype=int)
        elif base == "strong" and a > 1:
            b_eff = threat.design_strong_collusion(m_rows, a, rng)
        elif base == "zero":  # rows whose true count is 0
            b_eff = np.zeros((m_rows, a), dtype=int)
        else:
            b_eff = (rng.random((m_rows, a)) < 0.6).astype(int)
        groups = self.as_groups(self.detections(rng, n, locations, b_eff, fault))
        assert group_loc_correct(groups, locations, b_eff) == mask_loc_correct(
            groups, locations, b_eff, n)

    @pytest.mark.parametrize("sets,b_eff,expected", [
        ([[1, 4], [1, 4]], [[1, 1], [1, 1]], True),  # one shared group, read as a view
        ([[1, 4], [1]], [[1, 1], [1, 1]], False),  # a count one too low
        ([[1, 4], [1, 3, 4]], [[1, 1], [1, 1]], False),  # a count one too high
        ([[1, 4], [1, 3]], [[1, 1], [1, 1]], False),  # the right count, a wrong index
        ([[1, 4], []], [[1, 1], [1, 1]], False),  # nothing detected where two errors are
        ([[1], [4]], [[1, 0], [0, 1]], True),
        ([[4], [1]], [[1, 0], [0, 1]], False),  # each row's index is the other row's
    ])
    def test_counts_and_supports_decide(self, sets, b_eff, expected):
        locations, b_eff, groups = np.array([1, 4]), np.array(b_eff), self.as_groups(sets)
        assert group_loc_correct(groups, locations, b_eff) is expected
        assert mask_loc_correct(groups, locations, b_eff, 6) is expected

    def test_rows_of_count_zero_must_detect_nothing(self):
        locations, b_eff = np.array([2]), np.array([[1], [0], [0]])
        assert group_loc_correct(self.as_groups([[2], [], []]), locations, b_eff)
        assert not group_loc_correct(self.as_groups([[2], [], [2]]), locations, b_eff)
        none, no_base = np.zeros(0, dtype=int), np.zeros((3, 0), dtype=int)
        assert group_loc_correct([], none, no_base)
        assert not group_loc_correct(self.as_groups([[0], [], []]), none, no_base)


class TestSharedPrefix:
    """Consecutive trials of one seed and encoding share data, shares and worker results."""

    # elementwise square: degree 2 like gram, so only the function name tells them apart
    SQUARE = codec.MatrixPolynomial("square", 2, lambda x: x * x)
    BASE = dict(n_workers=11, k=3, t=1, sigma_pad=1.0, input_rows=4, input_cols=4,
                byzantine_count=2, precision_var=0.005, localization="restricted",
                unreliable=(0, 1, 2, 3, 4))

    @staticmethod
    def fresh(monkeypatch, sc, seed):
        """The trial run with nothing kept from the trial before it."""
        monkeypatch.setattr(harness, "_last_prefix", None)
        return run_trial(sc, seed)

    @pytest.fixture
    def square(self, monkeypatch):
        """SQUARE in codec.FUNCTIONS, and Scenario's `function` annotation re-read to take it.

        The annotation is resolved once per class, so its cache is cleared
        when SQUARE is added and again when it is gone.
        """
        monkeypatch.setitem(codec.FUNCTIONS, self.SQUARE.name, self.SQUARE)
        numeric._field_kinds.cache_clear()
        yield
        monkeypatch.undo()
        numeric._field_kinds.cache_clear()

    def test_interleaved_trials_match_fresh_trials(self, monkeypatch, square):
        a = Scenario(**self.BASE)
        b = a.with_updates(unreliable=(0, 2, 5, 8, 10))
        # each differs from `a` in one field: the first five change the shared
        # part, the last two only what the trial does after it
        others = [a.with_updates(**change) for change in (
            dict(beta=1.2), dict(sigma_pad=2.0), dict(input_rows=3), dict(input_cols=3),
            dict(function="square"), dict(decoder=False), dict(byzantine_count=0),
        )]
        s1, s2 = 101, 202
        sequence = [(a, s1), (b, s1), (a, s2), (b, s1), (a, s1)]
        for other in others:
            sequence += [(other, s1), (a, s1)]
        sequence += [(b, s2), (b, s2)]
        monkeypatch.setattr(harness, "_last_prefix", None)
        run = [run_trial(sc, seed) for sc, seed in sequence]
        alone = [self.fresh(monkeypatch, sc, seed) for sc, seed in sequence]
        for got, want in zip(run, alone):
            assert dataclasses.replace(got, wall_time=0.0) == dataclasses.replace(
                want, wall_time=0.0)
        # the sequence changes the worker results, not only the threat
        assert len({r.e_rel for r in alone}) > len(sequence) // 2

    def test_threads_interleaving_seeds_match_fresh_trials(self, monkeypatch):
        a = Scenario(**self.BASE)
        b = a.with_updates(unreliable=(0, 2, 5, 8, 10))
        pairs = [(sc, seed) for seed in (5, 6) for sc in (a, b)]
        want = [dataclasses.replace(self.fresh(monkeypatch, sc, seed), wall_time=0.0)
                for sc, seed in pairs]
        failures, finished = [], []

        def work(offset):
            for i in range(40):
                j = (offset + i) % len(pairs)
                got = dataclasses.replace(run_trial(*pairs[j]), wall_time=0.0)
                if got != want[j]:
                    failures.append(pairs[j])
            finished.append(offset)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(finished) == list(range(6))
        assert failures == []


class TestSharedValueRecovery:
    """Value recovery in a trial: one system per shared detected set, else one per codeword."""

    ALL_ONE = dict(byzantine_count=3, precision_var=1e-8)
    WEAK = dict(byzantine_count=4, base_matrix="weak", weak_zero_prob=0.4, precision_var=1e-8)
    JOINT = dict(byzantine_count=3, localization="joint", precision_mode="locator",
                 precision_var=1e-3)

    @staticmethod
    def spy_systems(monkeypatch):
        """(locations, systems solved, operators built) per value-recovery call,
        from a cold operator cache.

        A system solved is one matrix inverted: each system's normal matrix.
        """
        dft_code._value_operator.cache_clear()
        calls = []
        recover, inv = dft_code.recover_error_values, np.linalg.inv

        def counting(code, s, locations):
            solved = []

            def spy(a):
                solved.append(int(np.prod(np.shape(a)[:-2])))
                return inv(a)

            built = dft_code._value_operator.cache_info().misses
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "inv", spy)
                values = recover(code, s, locations)
            built = dft_code._value_operator.cache_info().misses - built
            calls.append((np.asarray(locations), sum(solved), built))
            return values

        monkeypatch.setattr(dft_code, "recover_error_values", counting)
        return calls

    def test_all_one_trial_solves_one_system(self, monkeypatch):
        calls = self.spy_systems(monkeypatch)
        sc = clean_scenario(byzantine_locations=(1, 5, 9), **self.ALL_ONE)
        first, second = run_trial(sc, seed=3), run_trial(sc, seed=4)
        assert first.loc_correct and second.loc_correct
        # all 25 codewords hold the same three errors: the first trial builds
        # the set's operator from one system, the second reuses it
        assert [(loc.tolist(), systems, built) for loc, systems, built in calls] == [
            ([1, 5, 9], 1, 1), ([1, 5, 9], 0, 0)]

    def test_weak_trial_solves_one_system_per_codeword_of_a_mixed_group(self, monkeypatch):
        calls = self.spy_systems(monkeypatch)
        run_trial(clean_scenario(**self.WEAK), seed=3)
        mixed = [loc for loc, _, _ in calls if loc.ndim == 2]
        assert mixed
        for loc, systems, built in calls:
            if loc.ndim == 1:
                assert (systems, built) == (1, 1)
            else:
                assert (loc != loc[0]).any(axis=-1).any()
                assert (systems, built) == (len(loc), 0)

    @pytest.mark.parametrize("overrides", [ALL_ONE, WEAK, JOINT], ids=["all-one", "weak", "joint"])
    def test_records_match_the_per_codeword_path(self, monkeypatch, overrides):
        sc = clean_scenario(**overrides)
        seen = []
        correct_codewords, relative_error = harness._correct_codewords, codec.relative_error

        def spy_correct(code, r_eff, syndromes, groups):
            corrected = correct_codewords(code, r_eff, syndromes, groups)
            # the (M, N) mask of the detected indices, from each group's found sets
            detected = np.zeros(r_eff.shape, dtype=bool)
            codewords = np.arange(r_eff.shape[0])
            for rows, found in groups:
                detected[codewords[rows, None], found] = True
            seen.append({"s": syndromes, "detected": detected, "corrected": corrected})
            return corrected

        def spy_error(reference, estimate):
            seen[-1]["reference"] = reference
            return relative_error(reference, estimate)

        monkeypatch.setattr(harness, "_correct_codewords", spy_correct)
        monkeypatch.setattr(codec, "relative_error", spy_error)
        seeds = range(6)
        shared = [run_trial(sc, seed) for seed in seeds]

        # route every detected set through the per-codeword path: tile it over its stack
        recover, correct = dft_code.recover_error_values, dft_code.correct_codeword

        def tiled(locations, words):
            locations = np.asarray(locations)
            if locations.ndim > 1:
                return locations
            return np.broadcast_to(locations, np.shape(words)[:-1] + locations.shape)

        monkeypatch.setattr(dft_code, "recover_error_values",
                            lambda code, s, loc: recover(code, s, tiled(loc, s)))
        monkeypatch.setattr(dft_code, "correct_codeword",
                            lambda r, loc, values: correct(r, tiled(loc, r), values))
        per_codeword = [run_trial(sc, seed) for seed in seeds]

        code = dft_code.build_code(sc.n_workers, sc.code_dimension)
        recon = np.linalg.norm(codec._reconstruct_map(sc.encoding()))
        for one, other, new, old in zip(shared, per_codeword, seen[: len(seeds)], seen[len(seeds):]):
            assert np.array_equal(new["detected"], old["detected"])
            # the pinned value-recovery tolerance, per corrected entry
            tol = np.zeros(new["detected"].shape)
            for row, (s, mask) in enumerate(zip(new["s"], new["detected"])):
                if mask.any():
                    pinv = np.linalg.norm(np.linalg.pinv(code.parity[:, mask].conj()))
                    tol[row, mask] = C_VALUE_RECOVERY * EPS * pinv * np.linalg.norm(s)
            assert (np.abs(new["corrected"] - old["corrected"]) <= tol).all()
            # e_rel = ||ref - Re(recon @ corrected)|| / ||ref||, plus its own rounding
            bound = recon * np.linalg.norm(tol) / np.linalg.norm(new["reference"])
            assert abs(one.e_rel - other.e_rel) <= bound + 8 * EPS * one.e_rel
            unrounded = dict(e_rel=0.0, e_rel_db=0.0, wall_time=0.0)
            assert dataclasses.replace(one, **unrounded) == dataclasses.replace(other, **unrounded)


class TestSeeds:
    def test_deterministic_and_distinct(self):
        one = trial_seeds(5, 0, 4)
        two = trial_seeds(5, 0, 4)
        other_grid = trial_seeds(5, 1, 4)
        assert one == two
        assert len(set(one)) == 4
        assert set(one) != set(other_grid)

    @staticmethod
    def numpy_seeds(master, grid, count):
        """The seeds as NumPy's own SeedSequence derives them, one trial at a time."""
        return [int(np.random.SeedSequence([master, grid, t]).generate_state(1, np.uint64)[0])
                for t in range(count)]

    @given(master=st.integers(0, 2**70 - 1), grid=st.integers(0, 2**40 - 1),
           count=st.integers(0, 300))
    @example(master=0, grid=0, count=0)
    @example(master=2**32 - 1, grid=2**32 - 1, count=3)
    @example(master=2**32, grid=2**32, count=300)
    @example(master=2**64 - 1, grid=2**40 - 1, count=5)
    @example(master=2**70 - 1, grid=2**40 - 1, count=7)
    @seed(20241020)
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_seed_sequence(self, master, grid, count):
        """Bit for bit NumPy's SeedSequence([master, grid, trial]) with two to five
        entropy words before the trial's, so a NumPy that changed it fails here."""
        assert trial_seeds(master, grid, count) == self.numpy_seeds(master, grid, count)

    @given(negative=st.integers(-(2**70), -1), in_grid=st.booleans())
    @seed(20241020)
    @settings(max_examples=20, deadline=None)
    def test_negative_master_or_grid_raises(self, negative, in_grid):
        master, grid = (0, negative) if in_grid else (negative, 0)
        with pytest.raises(ValueError):
            trial_seeds(master, grid, 2)

    @pytest.mark.parametrize("master,grid", [(1.5, 0), (5, 0.0), ("5", 0)])
    def test_non_integer_master_or_grid_raises(self, master, grid):
        with pytest.raises(TypeError):
            trial_seeds(master, grid, 2)

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", np.float64(2.0)])
    def test_non_integer_count_raises(self, count):
        # np.arange used to round 2.5 up to three seeds
        with pytest.raises(TypeError):
            trial_seeds(0, 0, count)

    @pytest.mark.parametrize("count", [-1, -(2**40)])
    def test_negative_count_raises(self, count):
        with pytest.raises(ValueError, match="trial count"):
            trial_seeds(0, 0, count)

    def test_integer_like_count_is_read_as_its_value(self):
        assert trial_seeds(0, 0, np.int64(3)) == trial_seeds(0, 0, 3)


def sweep_csv_rows(tmp_path, base, spec):
    """The trial and aggregate rows `write_sweep_csv` writes, as dicts."""
    trial, agg = tmp_path / "sweep.csv", tmp_path / "sweep.agg.csv"
    write_sweep_csv(base, spec, trial, agg)
    with open(trial, newline="") as fh_trial, open(agg, newline="") as fh_agg:
        return list(csv.DictReader(fh_trial)), list(csv.DictReader(fh_agg))


class TestSweep:
    def _base(self):
        return clean_scenario(trials=2, master_seed=3)

    def _spec(self):
        return SweepSpec(byzantine_counts=(0, 2))

    def test_emits_trials_then_aggregate_per_point(self, tmp_path):
        trials, aggregates = sweep_csv_rows(tmp_path, self._base(), self._spec())
        kinds = []
        for agg in aggregates:
            point = [row for row in trials if row["A"] == agg["A"]]
            kinds += ["trial"] * len(point) + ["aggregate"]
        assert [row["A"] for row in trials] == ["0", "0", "2", "2"]
        assert kinds == ["trial", "trial", "aggregate"] * 2

    def test_csv_bodies_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            write_sweep_csv(self._base(), self._spec(), path,
                            str(path) + ".agg")
        assert paths[0].read_bytes() == paths[1].read_bytes()
        agg_a = (tmp_path / "a.csv.agg").read_bytes()
        agg_b = (tmp_path / "b.csv.agg").read_bytes()
        assert agg_a == agg_b

    def test_invalid_grid_point_fails_before_any_trial(self, tmp_path):
        base = clean_scenario(byzantine_count=2, byzantine_locations=(0, 5), trials=1)
        path = tmp_path / "out.csv"
        with pytest.raises(ParameterError, match="byzantine_count"):
            write_sweep_csv(base, SweepSpec(byzantine_counts=(2, 3)), path)
        assert not path.exists()

    def test_decoder_at_code_dimension_n_fails_before_any_row(self, tmp_path):
        cfg = tmp_path / "square.cfg"
        cfg.write_text(
            "[scenario]\nn_workers = 3\nk = 1\nt = 1\ndecoder = false\ntrials = 1\n"
            "[sweep]\ndecoder_states = false, true\n"
        )
        base, spec = load_config(cfg)
        path = tmp_path / "out.csv"
        with pytest.raises(ParameterError, match="decoder"):
            write_sweep_csv(base, spec, path)
        assert not path.exists()

    def test_invalid_point_leaves_an_existing_output_as_it_was(self, tmp_path):
        cfg = tmp_path / "square.cfg"
        cfg.write_text(
            "[scenario]\nn_workers = 3\nk = 1\nt = 1\ndecoder = false\ntrials = 1\n"
            "[sweep]\ndecoder_states = false, true\n"
        )
        base, spec = load_config(cfg)
        out, agg = tmp_path / "out.csv", tmp_path / "out.agg.csv"
        write_sweep_csv(self._base(), self._spec(), out, agg)
        before = out.read_bytes(), agg.read_bytes()
        with pytest.raises(ParameterError, match="decoder"):
            write_sweep_csv(base, spec, out, agg)
        assert (out.read_bytes(), agg.read_bytes()) == before

    def test_exact_trials_read_minus_inf_db(self):
        """An exact reconstruction (e_rel 0) reads -inf dB in its trial and
        aggregate rows, with no log10 warning (the suite makes one an error)."""
        exact = Scenario(n_workers=11, k=1, t=0, beta=1.0, sigma_pad=0.0, function="identity",
                         input_rows=1, input_cols=1, decoder=False)
        records = [run_trial(exact, seed) for seed in range(3)]
        assert [r.csv_row()[5:7] for r in records] == [("0.000000000000e+00", "-inf")] * 3
        [(_, sc, label)] = SweepSpec().grid(exact)
        assert harness._aggregate_row(sc, label, records)[-2:] == ("0.000000000000e+00", "-inf")

    def test_csv_header_contract(self, tmp_path):
        path = tmp_path / "out.csv"
        write_sweep_csv(self._base(), self._spec(), path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TRIAL_CSV_HEADER)
        assert header == "scenario,seed,A,sigma_p2,strategy,e_rel,e_rel_db,loc_correct"


class TestPairedSweep:
    """A paired axis's points share their trial seeds; every other point has its own."""

    def _seeds_by_point(self, tmp_path, spec):
        """The seed column of a two-trial sweep, one list per grid point."""
        trials, _ = sweep_csv_rows(tmp_path, clean_scenario(trials=2, master_seed=3), spec)
        seeds = [row["seed"] for row in trials]
        return [seeds[i:i + 2] for i in range(0, len(seeds), 2)]

    def test_points_along_a_paired_axis_share_their_seeds(self, tmp_path):
        spec = SweepSpec(byzantine_counts=(0, 2), strategies=("independent", "restricted"),
                         paired_axes=("strategies",))
        a0_ind, a0_res, a2_ind, a2_res = self._seeds_by_point(tmp_path, spec)
        assert a0_ind == a0_res and a2_ind == a2_res
        assert not set(a0_ind) & set(a2_ind)

    def test_unpaired_points_are_seeded_by_grid_index(self, tmp_path):
        spec = SweepSpec(byzantine_counts=(0, 2), strategies=("independent", "restricted"))
        points = self._seeds_by_point(tmp_path, spec)
        assert points == [[str(s) for s in trial_seeds(3, index, 2)] for index in range(4)]

    def test_repeated_axis_value_keeps_distinct_seeds(self, tmp_path):
        spec = SweepSpec(byzantine_counts=(2, 2), precision_vars=(0.0, 1e-6),
                         paired_axes=("precision_vars",))
        assert [index for index, _, _ in spec.grid(clean_scenario())] == [0, 0, 1, 1]
        first, paired, repeat, _ = self._seeds_by_point(tmp_path, spec)
        assert first == paired
        assert not set(first) & set(repeat)

    def test_unknown_paired_axis_rejected_before_any_csv(self, tmp_path, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("[scenario]\ntrials = 1\n[sweep]\n"
                       "strategies = independent, joint\npaired_axes = strategy\n")
        with pytest.raises(ParameterError, match="paired_axes"):
            load_config(cfg)
        out = tmp_path / "out.csv"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert "paired_axes" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(
            "[scenario]\n"
            "n_workers = 15\nk = 3\nt = 1\nsigma_pad = 10\n"
            "byzantine_count = 2\nlocalization = independent\n"
            "trials = 2\nmaster_seed = 4\n"
            "[sweep]\nbyzantine_counts = 0,1\n"
        )
        scenario, spec = load_config(cfg)
        assert scenario.n_workers == 15
        assert scenario.code_dimension == 7
        assert spec.byzantine_counts == (0, 1)
        points = list(spec.grid(scenario))
        assert len(points) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nwarp_speed = 9\n")
        with pytest.raises(ParameterError):
            load_config(cfg)

    @pytest.mark.parametrize("key", ["trials", "master_seed"])
    def test_sweep_takes_trials_and_seed_from_the_scenario(self, tmp_path, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"[scenario]\n[sweep]\nbyzantine_counts = 0, 1\n{key} = 2\n")
        with pytest.raises(ParameterError, match=f"unknown sweep key '{key}'"):
            load_config(cfg)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.cfg")

    def test_shipped_configs_parse(self):
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            scenario, spec = load_config(cfg)
            assert scenario.n_workers >= scenario.code_dimension

    @pytest.mark.parametrize("cfg", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda path: path.stem)
    def test_shipped_config_builds_its_whole_grid(self, cfg):
        # a shipped config with an invalid grid point fails here, not in a user's sweep
        scenario, spec = load_config(cfg)
        points = list(spec.grid(scenario))
        assert points and all(isinstance(sc, Scenario) for _, sc, _ in points)

    @pytest.mark.parametrize("text,key", [
        ("[scenario]\ndecoder = ture\n", "decoder"),
        ("[scenario]\n[sweep]\ndecoder_states = true, ture\n", "decoder_states"),
    ], ids=["scenario", "sweep"])
    def test_misspelt_boolean_rejected(self, tmp_path, text, key):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text(text)
        with pytest.raises(ParameterError, match=key):
            load_config(cfg)

    def test_bad_number_names_its_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[scenario]\nn_workers = many\n")
        with pytest.raises(ParameterError, match="n_workers"):
            load_config(cfg)

    @pytest.mark.parametrize("text", [
        "[scenario]\ntrials = 3\ntrials = 4\n",
        "[scenario]\ntrials = 3\n[scenario]\nk = 3\n",
        "trials = 3\n[scenario]\n",
    ], ids=["duplicate-key", "duplicate-section", "no-section-header"])
    def test_unparsable_file_is_named(self, tmp_path, text):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(text)
        with pytest.raises(ParameterError, match="broken.cfg"):
            load_config(cfg)

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\ntrials = 3\n[scenario]\n[sweep]\n",
        "[DEFAULT]\nn_workers = 15\n[scenario]\n",
        "[scenario]\n[DEFAULT]\n",
    ], ids=["shared-key", "scenario-key", "empty"])
    def test_default_section_rejected(self, tmp_path, text):
        cfg = tmp_path / "default.cfg"
        cfg.write_text(text)
        with pytest.raises(ParameterError, match=r"unknown config section \[DEFAULT\]"):
            load_config(cfg)

    def test_percent_sign_reaches_the_key_check(self, tmp_path):
        cfg = tmp_path / "percent.cfg"
        cfg.write_text("[scenario]\nfunction = %(gram)s\n")
        with pytest.raises(ParameterError, match="function must be one of"):
            load_config(cfg)


_TRUE_WORDS = ("true", "yes", "on", "1", "True", "YES")
_FALSE_WORDS = ("false", "no", "off", "0", "False", "OFF")
_floats = st.floats(-1e6, 1e6, allow_nan=False)
_positive = st.floats(1e-9, 1e6)


@st.composite
def scenarios(draw):
    n = draw(st.integers(11, 40))
    unreliable = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=1,
                                           max_size=n, unique=True).map(tuple))
    pool = list(range(n)) if unreliable is None else list(unreliable)
    count = draw(st.integers(0, len(pool)))
    locations = None
    if count and draw(st.booleans()):
        locations = tuple(draw(st.permutations(pool))[:count])
    return Scenario(
        n_workers=n,
        k=draw(st.integers(1, 3)),
        t=draw(st.integers(0, 2)),
        beta=draw(_positive),
        sigma_pad=draw(st.floats(0.0, 1e6)),
        function=draw(st.sampled_from(("gram", "identity"))),
        input_rows=draw(st.integers(1, 30)),
        input_cols=draw(st.integers(1, 30)),
        unreliable=unreliable,
        byzantine_count=count,
        byzantine_locations=locations,
        base_matrix=draw(st.sampled_from(BASE_MATRIX_MODES)),
        weak_zero_prob=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        noise_mean_re=draw(_floats),
        noise_mean_im=draw(_floats),
        noise_var=draw(_positive),
        precision_mode=draw(st.sampled_from(("synthetic", "locator", "reduced"))),
        precision_var=draw(st.floats(0.0, 1.0)),
        decoder=draw(st.booleans()),
        error_count_mode=draw(st.sampled_from(("oracle", "rank"))),
        rank_rel_tol=draw(st.floats(1e-12, 0.5)),
        localization=draw(st.sampled_from(LOCALIZATION_MODES)),
        constraint_length=draw(st.none() | st.integers(1, 20)),
        trials=draw(st.integers(1, 10_000)),
        master_seed=draw(st.integers(0, 2**63)),
    )


AXES = tuple(f.name for f in dataclasses.fields(SweepSpec) if f.name != "paired_axes")
sweep_specs = st.builds(
    SweepSpec,
    byzantine_counts=st.lists(st.integers(0, 8), max_size=4).map(tuple),
    precision_vars=st.lists(st.floats(0.0, 1.0), max_size=4).map(tuple),
    strategies=st.lists(st.sampled_from(LOCALIZATION_MODES), max_size=3).map(tuple),
    zero_probs=st.lists(_positive, max_size=4).map(tuple),
    constraint_lengths=st.lists(st.integers(1, 20), max_size=4).map(tuple),
    decoder_states=st.lists(st.booleans(), max_size=2).map(tuple),
    paired_axes=st.lists(st.sampled_from(AXES), max_size=3, unique=True).map(tuple),
)


def _config_value(value, data) -> str:
    """How a config file spells one field value, boolean words drawn at random."""
    if value is None:
        return ""
    if isinstance(value, tuple):
        return ", ".join(_config_value(item, data) for item in value)
    if isinstance(value, bool):
        return data.draw(st.sampled_from(_TRUE_WORDS if value else _FALSE_WORDS))
    return repr(value) if isinstance(value, float) else str(value)


def _section(name, obj, data) -> str:
    lines = [f"[{name}]"]
    for field in dataclasses.fields(obj):
        lines.append(f"{field.name} = {_config_value(getattr(obj, field.name), data)}")
    return "\n".join(lines) + "\n"


@given(scenario=scenarios(), spec=sweep_specs, data=st.data())
@settings(max_examples=60, deadline=None)
def test_config_round_trip(tmp_path_factory, scenario, spec, data):
    cfg = tmp_path_factory.mktemp("cfg") / "round.cfg"
    cfg.write_text(_section("scenario", scenario, data) + _section("sweep", spec, data))
    loaded, loaded_spec = load_config(cfg)
    assert loaded == scenario
    assert loaded_spec == spec
    assert loaded.digest() == scenario.digest()
