"""Scenario configuration: one fully-specified end-to-end experiment.

Scenarios are frozen dataclasses; sweeps derive variants with
``with_updates``. The on-disk format is flat key-value text with typed
sections (configparser syntax), see ``configs/`` for examples. Each key is
parsed by the type annotation of the dataclass field it names.
"""

from __future__ import annotations

import configparser
import dataclasses
import hashlib
import itertools
import typing
from dataclasses import dataclass

from .codec import FUNCTIONS, EncodingParams
from .numeric import ParameterError

LOCALIZATION_MODES = ("independent", "restricted", "joint")
BASE_MATRIX_MODES = ("all-one", "strong", "weak")


@dataclass(frozen=True)
class Scenario:
    # encoding
    n_workers: int = 31
    k: int = 5
    t: int = 3
    beta: float = 1.5
    sigma_pad: float = 1e6
    function: str = "gram"
    input_rows: int = 20
    input_cols: int = 5
    # trust profile: evaluation indices (0-based) held by unreliable workers
    unreliable: tuple[int, ...] | None = None  # None: every worker is unreliable
    # threat
    byzantine_count: int = 0
    byzantine_locations: tuple[int, ...] | None = None  # None: resampled per trial
    base_matrix: str = "all-one"
    weak_zero_prob: float = 0.25
    noise_mean_re: float = 10.0
    noise_mean_im: float = 0.0
    noise_var: float = 1e3
    precision_mode: str = "synthetic"
    precision_var: float = 0.0
    # decoder
    decoder: bool = True
    error_count_mode: str = "oracle"
    rank_rel_tol: float = 1e-6
    localization: str = "independent"
    constraint_length: int | None = None
    # experiment
    trials: int = 100
    master_seed: int = 0

    def __post_init__(self):
        if self.function not in FUNCTIONS:
            raise ParameterError(f"unknown function {self.function!r}")
        if self.localization not in LOCALIZATION_MODES:
            raise ParameterError(f"localization must be one of {LOCALIZATION_MODES}")
        if self.base_matrix not in BASE_MATRIX_MODES:
            raise ParameterError(f"base_matrix must be one of {BASE_MATRIX_MODES}")
        if self.error_count_mode not in ("oracle", "rank"):
            raise ParameterError("error_count_mode must be 'oracle' or 'rank'")
        for name in ("unreliable", "byzantine_locations"):
            idx = getattr(self, name)
            if idx is not None:
                if any(not 0 <= i < self.n_workers for i in idx):
                    raise ParameterError(f"{name} indices must lie in 0..N-1")
                if len(set(idx)) != len(idx):
                    raise ParameterError(f"{name} indices must be distinct")
        pool = self.candidate_pool()
        if self.byzantine_count > len(pool):
            raise ParameterError("byzantine count exceeds the unreliable pool")
        if self.byzantine_locations is not None:
            if len(self.byzantine_locations) != self.byzantine_count:
                raise ParameterError("byzantine_locations must match byzantine_count")
            if not set(self.byzantine_locations) <= set(pool):
                raise ParameterError("byzantine_locations must lie in the unreliable pool")
        self.encoding()  # validates K <= N

    def encoding(self) -> EncodingParams:
        return EncodingParams(
            n_workers=self.n_workers,
            k=self.k,
            t=self.t,
            degree=FUNCTIONS[self.function].degree,
            beta=self.beta,
            sigma_pad=self.sigma_pad,
        )

    def candidate_pool(self) -> tuple:
        """Evaluation indices that unreliable workers hold."""
        if self.unreliable is not None:
            return tuple(sorted(self.unreliable))
        return tuple(range(self.n_workers))

    @property
    def code_dimension(self) -> int:
        return self.encoding().code_dimension

    @property
    def capability(self) -> int:
        return (self.n_workers - self.code_dimension) // 2

    @property
    def output_entries(self) -> int:
        fn = FUNCTIONS[self.function]
        if fn.name == "gram":
            return self.input_cols * self.input_cols
        return self.input_rows * self.input_cols

    @property
    def noise_mean(self) -> complex:
        return complex(self.noise_mean_re, self.noise_mean_im)

    def with_updates(self, **changes) -> "Scenario":
        return dataclasses.replace(self, **changes)

    def digest(self) -> str:
        """Stable short hash identifying the scenario (excludes trial count)."""
        items = dataclasses.asdict(self)
        items.pop("trials")
        canonical = ";".join(f"{k}={items[k]!r}" for k in sorted(items))
        return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes layered over a base scenario; empty axes mean 'keep base'."""

    byzantine_counts: tuple[int, ...] = ()
    precision_vars: tuple[float, ...] = ()
    strategies: tuple[str, ...] = ()
    zero_probs: tuple[float, ...] = ()
    constraint_lengths: tuple[int, ...] = ()
    decoder_states: tuple[bool, ...] = ()
    trials: int | None = None
    master_seed: int | None = None

    def grid(self, base: Scenario):
        """Yield (grid_index, scenario, label-dict) in deterministic order.

        The grid index seeds the trials, so the axis order below fixes every
        sweep's output.
        """
        axes = {
            "decoder": self.decoder_states or (base.decoder,),
            "byzantine_count": self.byzantine_counts or (base.byzantine_count,),
            "precision_var": self.precision_vars or (base.precision_var,),
            "localization": self.strategies or (base.localization,),
            "weak_zero_prob": self.zero_probs or (base.weak_zero_prob,),
            "constraint_length": self.constraint_lengths or (base.constraint_length,),
        }
        overrides = {}
        if self.trials is not None:
            overrides["trials"] = self.trials
        if self.master_seed is not None:
            overrides["master_seed"] = self.master_seed
        for idx, point in enumerate(itertools.product(*axes.values())):
            changes = dict(zip(axes, point))
            label = {
                "decoder": changes["decoder"],
                "A": changes["byzantine_count"],
                "precision_var": changes["precision_var"],
                "strategy": changes["localization"] if changes["decoder"] else "none",
                "zero_prob": changes["weak_zero_prob"],
                "constraint_length": changes["constraint_length"],
            }
            yield idx, base.with_updates(**changes, **overrides), label


def _cast(hint, raw: str):
    """Parse one config value into the type of a field annotation.

    Handles int, float and str; bool through configparser's boolean words;
    ``tuple[T, ...]`` as a comma- or semicolon-separated list; and ``X | None``,
    where an empty value means None.
    """
    args = typing.get_args(hint)
    if type(None) in args:
        if not raw.strip():
            return None
        (hint,) = (arg for arg in args if arg is not type(None))
        return _cast(hint, raw)
    if typing.get_origin(hint) is tuple:
        tokens = (tok.strip() for tok in raw.replace(";", ",").split(","))
        return tuple(_cast(args[0], tok) for tok in tokens if tok)
    if hint is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    return hint(raw)


def _read_section(parser: configparser.ConfigParser, name: str, cls) -> dict:
    """Keyword arguments for ``cls`` from one config section."""
    hints = typing.get_type_hints(cls)
    fields = {}
    for key, raw in parser[name].items():
        if key not in hints:
            raise ParameterError(f"unknown {name} key {key!r}")
        try:
            fields[key] = _cast(hints[key], raw)
        except ValueError as exc:
            raise ParameterError(f"[{name}] {key}: {exc}") from exc
    return fields


def load_config(path) -> tuple[Scenario, SweepSpec]:
    """Read a scenario (and optional sweep grid) from a config file."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    if "scenario" not in parser:
        raise ParameterError("config needs a [scenario] section")
    scenario = Scenario(**_read_section(parser, "scenario", Scenario))
    sweep = SweepSpec()
    if "sweep" in parser:
        sweep = SweepSpec(**_read_section(parser, "sweep", SweepSpec))
    return scenario, sweep
