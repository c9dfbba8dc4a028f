import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        from pathlib import Path

        cfg_dir = Path(__file__).resolve().parent.parent / "configs"
        for cfg in sorted(cfg_dir.glob("*.cfg")):
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
