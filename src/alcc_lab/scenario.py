"""Scenario configuration: one fully-specified end-to-end experiment.

Scenarios are frozen dataclasses; sweeps derive variants with
``with_updates``. The on-disk format is flat key-value text with typed
sections (configparser syntax), see ``configs/`` for examples. Each key is
parsed by the type annotation of the dataclass field it names, and every
field, from a file or from the API, is checked and stored by it
(`numeric.check_fields`); the choice fields are ``Literal``s of their names.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import itertools
import typing
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .codec import FUNCTIONS, EncodingParams
from .numeric import ParameterError, check_fields, check_index_set
from .threat import PRECISION_MODES


@dataclass(frozen=True)
class Scenario:
    # encoding
    n_workers: int = 31
    k: int = 5
    t: int = 3
    beta: float = 1.5
    sigma_pad: float = 1e6
    function: Literal[tuple(FUNCTIONS)] = "gram"
    input_rows: int = 20
    input_cols: int = 5
    # trust profile: evaluation indices (0-based) held by unreliable workers
    unreliable: tuple[int, ...] | None = None  # None: every worker is unreliable
    # threat
    byzantine_count: int = 0
    byzantine_locations: tuple[int, ...] | None = None  # None: resampled per trial
    base_matrix: Literal["all-one", "strong", "weak"] = "all-one"
    weak_zero_prob: float = 0.25
    noise_mean_re: float = 10.0
    noise_mean_im: float = 0.0
    noise_var: float = 1e3
    precision_mode: Literal[PRECISION_MODES] = "synthetic"
    precision_var: float = 0.0
    # decoder
    decoder: bool = True
    error_count_mode: Literal["oracle", "rank"] = "oracle"
    rank_rel_tol: float = 1e-6
    localization: Literal["independent", "restricted", "joint"] = "independent"
    constraint_length: int | None = None
    # experiment
    trials: int = 100
    master_seed: int = 0

    def __post_init__(self):
        check_fields(self)
        ranges = {
            "input_rows": (self.input_rows >= 1, "be at least 1"),
            "input_cols": (self.input_cols >= 1, "be at least 1"),
            "byzantine_count": (self.byzantine_count >= 0, "be non-negative"),
            "precision_var": (self.precision_var >= 0, "be non-negative"),
            "noise_var": (self.noise_var >= 0, "be non-negative"),
            "weak_zero_prob": (0 < self.weak_zero_prob < 1, "lie in (0, 1)"),
            "rank_rel_tol": (0 < self.rank_rel_tol < 1, "lie in (0, 1)"),
            "constraint_length": (self.constraint_length is None
                                  or self.constraint_length >= 1, "be at least 1"),
            "trials": (self.trials >= 1, "be at least 1"),
            "master_seed": (self.master_seed >= 0, "be non-negative"),
            "unreliable": (self.unreliable != (), "not be empty (None means every worker)"),
        }
        for name, (valid, rule) in ranges.items():
            if not valid:
                raise ParameterError(f"{name} must {rule}")
        if self.unreliable is None:
            pool = np.arange(self.n_workers)
        else:
            pool = check_index_set("unreliable", self.unreliable, self.n_workers)
        if self.byzantine_locations is not None:
            check_index_set("byzantine_locations", self.byzantine_locations, self.n_workers)
        if self.byzantine_count > len(pool):
            raise ParameterError("byzantine count exceeds the unreliable pool")
        if self.byzantine_locations is not None:
            if len(self.byzantine_locations) != self.byzantine_count:
                raise ParameterError("byzantine_locations must match byzantine_count")
            if not set(self.byzantine_locations) <= set(pool.tolist()):
                raise ParameterError("byzantine_locations must lie in the unreliable pool")
        pool.flags.writeable = False
        object.__setattr__(self, "_pool", pool)  # kept for `pool_array`
        # building the encoding validates K <= N; it is kept for `encoding`
        object.__setattr__(self, "_encoding", _encoding_params(
            self.n_workers, self.k, self.t, FUNCTIONS[self.function].degree, self.beta,
            self.sigma_pad))
        if self.decoder and self.code_dimension == self.n_workers:
            raise ParameterError(
                f"decoder needs a code dimension below n_workers={self.n_workers}, but k="
                f"{self.k}, t={self.t} and function={self.function!r} give {self.code_dimension}"
            )

    def encoding(self) -> EncodingParams:
        """The scenario's (frozen) encoding parameters, built once with the scenario."""
        return self._encoding

    def pool_array(self) -> np.ndarray:
        """Evaluation indices that unreliable workers hold, sorted: a read-only int array
        built once with the scenario."""
        return self._pool

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
        # dataclasses.replace, without its per-field introspection
        return type(self)(**{**{name: getattr(self, name) for name in _FIELDS}, **changes})

    def digest(self) -> str:
        """Stable short hash identifying the scenario (excludes trial count).

        Hashes ``name=repr(value)`` over the sorted field names; computed on
        the first call and kept on the (frozen) instance.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            canonical = ";".join(f"{name}={getattr(self, name)!r}" for name in _DIGEST_FIELDS)
            cached = hashlib.sha256(canonical.encode()).hexdigest()[:12]
            object.__setattr__(self, "_digest", cached)
        return cached


@functools.lru_cache(maxsize=128)
def _encoding_params(*values) -> EncodingParams:
    """One EncodingParams per distinct value, built and checked once: scenarios
    that differ only past the encoding, such as a baseline scan's candidates, share it."""
    return EncodingParams(*values)


_FIELDS = tuple(f.name for f in dataclasses.fields(Scenario))
_DIGEST_FIELDS = tuple(sorted(name for name in _FIELDS if name != "trials"))


# each SweepSpec axis and the Scenario field it sets, outermost first
_AXES = {
    "decoder_states": "decoder",
    "byzantine_counts": "byzantine_count",
    "precision_vars": "precision_var",
    "strategies": "localization",
    "zero_probs": "weak_zero_prob",
    "constraint_lengths": "constraint_length",
}


@dataclass(frozen=True)
class SweepSpec:
    """Grid axes layered over a base scenario; empty axes mean 'keep base'.

    ``paired_axes`` names axes whose points share trial seeds, so that a
    comparison along them runs on common random numbers.
    """

    byzantine_counts: tuple[int, ...] = ()
    precision_vars: tuple[float, ...] = ()
    strategies: tuple[str, ...] = ()
    zero_probs: tuple[float, ...] = ()
    constraint_lengths: tuple[int, ...] = ()
    decoder_states: tuple[bool, ...] = ()
    paired_axes: tuple[str, ...] = ()

    def __post_init__(self):
        unknown = [name for name in self.paired_axes if name not in _AXES]
        if unknown:
            raise ParameterError(f"paired_axes names unknown axes {unknown}; use {tuple(_AXES)}")

    def grid(self, base: Scenario):
        """Yield (seed_index, scenario, label-dict) in deterministic order.

        The seed index seeds the trials: it is the point's position in the
        grid with the paired axes removed, counted over axis positions, so a
        repeated axis value still gets its own seeds. With no paired axes it
        is the grid index. The axis order of ``_AXES`` fixes every sweep's
        output.
        """
        values = [getattr(self, axis) or (getattr(base, field),) for axis, field in _AXES.items()]
        for positions in itertools.product(*(range(len(v)) for v in values)):
            seed_index = 0
            for axis, pos, axis_values in zip(_AXES, positions, values):
                if axis not in self.paired_axes:
                    seed_index = seed_index * len(axis_values) + pos
            changes = {field: v[pos] for field, v, pos in zip(_AXES.values(), values, positions)}
            label = {
                "decoder": changes["decoder"],
                "A": changes["byzantine_count"],
                "precision_var": changes["precision_var"],
                "strategy": changes["localization"] if changes["decoder"] else "none",
                "zero_prob": changes["weak_zero_prob"],
                "constraint_length": changes["constraint_length"],
            }
            yield seed_index, base.with_updates(**changes), label


def _cast(hint, raw: str):
    """Parse one config value into the type of a field annotation.

    Handles int, float and str; a ``Literal`` as its string; bool through
    configparser's boolean words; ``tuple[T, ...]`` as a comma- or
    semicolon-separated list; and ``X | None``, where an empty value means None.
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
    if typing.get_origin(hint) is Literal:
        return raw
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
    # no default section, so [DEFAULT] is rejected by name like any other;
    # no interpolation, so a '%' reaches the key's own check
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), default_section="",
                                       interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ParameterError(f"config file {path}: {' '.join(str(exc).split())}") from None
    if not read:
        raise FileNotFoundError(f"config file not found: {path}")
    for name in parser.sections():
        if name not in ("scenario", "sweep"):
            raise ParameterError(f"unknown config section [{name}]; use [scenario] and [sweep]")
    if "scenario" not in parser:
        raise ParameterError("config needs a [scenario] section")
    scenario = Scenario(**_read_section(parser, "scenario", Scenario))
    sweep = SweepSpec()
    if "sweep" in parser:
        sweep = SweepSpec(**_read_section(parser, "sweep", SweepSpec))
    return scenario, sweep
