"""Scenario configuration: one fully-specified end-to-end experiment.

Scenarios are frozen dataclasses; sweeps derive variants with
``with_updates``. The on-disk format is flat key-value text with typed
sections (configparser syntax), see ``configs/`` for examples. A key is
parsed, and a field from a file or from the API checked and stored
(`numeric.check_fields`), by the kind `numeric.field_kinds` reads from the
field's annotation; a ``[sweep]`` axis lists values of the field it sets.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import hashlib
import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .codec import FUNCTIONS, EncodingParams
from .numeric import ParameterError, check_fields, check_index_set, check_value, field_kinds
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

    Each axis is stored as a tuple of plain values of the `Scenario` field it sets
    (``_AXES``), checked by that field's kind when the spec is built. ``paired_axes``
    names axes whose points share trial seeds, so that a comparison along them runs
    on common random numbers; it is stored as a tuple too. Every one of them takes a
    sequence: a str or a scalar is rejected, not read item by item.
    """

    byzantine_counts: tuple[int, ...] = ()
    precision_vars: tuple[float, ...] = ()
    strategies: tuple[str, ...] = ()
    zero_probs: tuple[float, ...] = ()
    constraint_lengths: tuple[int | None, ...] = ()
    decoder_states: tuple[bool, ...] = ()
    paired_axes: tuple[str, ...] = ()

    def __post_init__(self):
        kinds = field_kinds(Scenario)
        for axis, field in _AXES.items():
            kind, unchecked = kinds[field]
            # written directly: a frozen dataclass refuses setattr
            self.__dict__[axis] = tuple(v if type(v) in unchecked else check_value(axis, kind, v)
                                        for v in _sequence(axis, getattr(self, axis)))
        self.__dict__["paired_axes"] = _sequence("paired_axes", self.paired_axes)
        unknown = [name for name in self.paired_axes if not isinstance(name, str)
                   or name not in _AXES]
        if unknown:
            raise ParameterError(f"paired_axes names unknown axes {unknown}; use {tuple(_AXES)}")

    def grid(self, base: Scenario):
        """Yield (seed_index, scenario, its value on each axis) in deterministic order.

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
            point = tuple(v[pos] for v, pos in zip(values, positions))
            yield seed_index, base.with_updates(**dict(zip(_AXES.values(), point))), point


def _sequence(name: str, values) -> tuple:
    """``values`` as a tuple; ParameterError naming ``name`` for a str or a scalar."""
    if not isinstance(values, str):
        try:
            return tuple(values)
        except TypeError:
            pass
    raise ParameterError(f"{name} takes a sequence of values, got {values!r}")


def _parse(kind, raw: str, listed: bool = False):
    """One config value of a field of this kind (`numeric.field_kinds`), or a comma- or
    semicolon-separated list of them: a bool by configparser's boolean words, a tuple as
    a list of ints, a ``Literal``'s name as written (its field's check names the choices)."""
    if listed or kind is tuple:
        return tuple(_parse(int if kind is tuple else kind, tok.strip())
                     for tok in raw.replace(";", ",").split(",") if tok.strip())
    if kind is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
        except KeyError:
            raise ValueError(f"not a boolean: {raw!r}") from None
    return kind(raw) if kind in (int, float) else raw


def _read_section(parser: configparser.ConfigParser, name: str, kinds: dict) -> dict:
    """Keyword arguments from one config section, each value parsed by the kind of its
    key: a [sweep] value as a list, an empty [scenario] value of an optional field as None."""
    fields = {}
    for key, raw in parser[name].items():
        if key not in kinds:
            raise ParameterError(f"unknown {name} key {key!r}")
        kind, unchecked = kinds[key]
        try:
            fields[key] = (None if name == "scenario" and type(None) in unchecked
                           and not raw.strip() else _parse(kind, raw, listed=name == "sweep"))
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
    kinds = field_kinds(Scenario)
    scenario = Scenario(**_read_section(parser, "scenario", kinds))
    sweep = SweepSpec()
    if "sweep" in parser:
        # an axis lists values of the field it sets; paired_axes lists axis names
        axis_kinds = {axis: kinds[field] for axis, field in _AXES.items()}
        axis_kinds["paired_axes"] = (tuple(_AXES), ())
        sweep = SweepSpec(**_read_section(parser, "sweep", axis_kinds))
    return scenario, sweep
