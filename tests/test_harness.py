import dataclasses
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alcc_lab import codec, dft_code, harness
from alcc_lab.harness import (
    TRIAL_CSV_HEADER,
    run_trial,
    sweep,
    trial_seeds,
    write_sweep_csv,
)
from alcc_lab.numeric import ParameterError
from alcc_lab.scenario import (
    BASE_MATRIX_MODES,
    LOCALIZATION_MODES,
    Scenario,
    SweepSpec,
    load_config,
)
from test_dft_code import C_VALUE_RECOVERY, EPS

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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
    ])
    def test_invalid_field_rejected_by_name(self, field, value):
        with pytest.raises(ParameterError, match=field):
            Scenario(**{field: value})

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
            sc, _ = load_config(CONFIG_DIR / source)
        assert sc.digest() == expected

    def test_candidate_pool_resolution(self):
        assert Scenario().candidate_pool() == tuple(range(31))
        sc = Scenario(unreliable=(4, 2, 9))
        assert sc.candidate_pool() == (2, 4, 9)


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
        dft_code._cached_code.cache_clear()
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

    def test_interleaved_trials_match_fresh_trials(self, monkeypatch):
        monkeypatch.setitem(codec.FUNCTIONS, self.SQUARE.name, self.SQUARE)
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
        """(locations, systems solved) for every value-recovery call of a trial."""
        calls = []
        recover, lstsq = dft_code.recover_error_values, dft_code.least_squares

        def counting(code, s, locations):
            def spy(a, b):
                calls.append((np.asarray(locations), int(np.prod(np.shape(a)[:-2]))))
                return lstsq(a, b)

            with monkeypatch.context() as m:
                m.setattr(dft_code, "least_squares", spy)
                return recover(code, s, locations)

        monkeypatch.setattr(dft_code, "recover_error_values", counting)
        return calls

    def test_all_one_trial_solves_one_system(self, monkeypatch):
        calls = self.spy_systems(monkeypatch)
        record = run_trial(clean_scenario(**self.ALL_ONE), seed=3)
        assert record.loc_correct
        # all 25 codewords hold the same three errors
        assert [(loc.shape, systems) for loc, systems in calls] == [((3,), 1)]

    def test_weak_trial_solves_one_system_per_codeword_of_a_mixed_group(self, monkeypatch):
        calls = self.spy_systems(monkeypatch)
        run_trial(clean_scenario(**self.WEAK), seed=3)
        mixed = [(loc, systems) for loc, systems in calls if loc.ndim == 2]
        assert mixed
        for loc, systems in calls:
            if loc.ndim == 1:
                assert systems == 1
            else:
                assert (loc != loc[0]).any(axis=-1).any()
                assert systems == len(loc)

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


class TestSweep:
    def _spec(self):
        return SweepSpec(byzantine_counts=(0, 2), trials=2, master_seed=3)

    def test_emits_trials_then_aggregate_per_point(self):
        rows = list(sweep(clean_scenario(), self._spec()))
        kinds = [kind for kind, _ in rows]
        assert kinds == ["trial", "trial", "aggregate"] * 2

    def test_csv_bodies_are_byte_identical(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            write_sweep_csv(clean_scenario(), self._spec(), path,
                            str(path) + ".agg")
        assert paths[0].read_bytes() == paths[1].read_bytes()
        agg_a = (tmp_path / "a.csv.agg").read_bytes()
        agg_b = (tmp_path / "b.csv.agg").read_bytes()
        assert agg_a == agg_b

    def test_invalid_grid_point_fails_before_any_trial(self):
        base = clean_scenario(byzantine_count=2, byzantine_locations=(0, 5))
        rows = sweep(base, SweepSpec(byzantine_counts=(2, 3), trials=1))
        with pytest.raises(ParameterError, match="byzantine_count"):
            next(rows)

    def test_csv_header_contract(self, tmp_path):
        path = tmp_path / "out.csv"
        write_sweep_csv(clean_scenario(), self._spec(), path)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TRIAL_CSV_HEADER)
        assert header == "scenario,seed,A,sigma_p2,strategy,e_rel,e_rel_db,loc_correct"


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        cfg = tmp_path / "case.cfg"
        cfg.write_text(
            "[scenario]\n"
            "n_workers = 15\nk = 3\nt = 1\nsigma_pad = 10\n"
            "byzantine_count = 2\nlocalization = independent\n"
            "trials = 2\nmaster_seed = 4\n"
            "[sweep]\nbyzantine_counts = 0,1\ntrials = 2\n"
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

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "nope.cfg")

    def test_shipped_configs_parse(self):
        for cfg in sorted(CONFIG_DIR.glob("*.cfg")):
            scenario, spec = load_config(cfg)
            assert scenario.n_workers >= scenario.code_dimension

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


sweep_specs = st.builds(
    SweepSpec,
    byzantine_counts=st.lists(st.integers(0, 8), max_size=4).map(tuple),
    precision_vars=st.lists(st.floats(0.0, 1.0), max_size=4).map(tuple),
    strategies=st.lists(st.sampled_from(LOCALIZATION_MODES), max_size=3).map(tuple),
    zero_probs=st.lists(_positive, max_size=4).map(tuple),
    constraint_lengths=st.lists(st.integers(1, 20), max_size=4).map(tuple),
    decoder_states=st.lists(st.booleans(), max_size=2).map(tuple),
    trials=st.none() | st.integers(1, 10_000),
    master_seed=st.none() | st.integers(0, 2**63),
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
