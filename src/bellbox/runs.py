"""Simulated experimental runs: sampling, tallies, estimates, audits.

One run draws the two settings independently and uniformly, then the
outcome pair from the behavior's block, with synthetic timestamps: both
choices end before t=0 and the joint outcome is reported at t=T.

The random stream is NumPy's PCG64 (128-bit state, 64-bit output) seeded
through ``SeedSequence(seed, spawn_key=(stream,))``, so one seed yields
arbitrarily many statistically independent sub-streams via the ``stream``
id.  Identical (seed, stream, n_runs, behavior) reproduce the identical
record stream bit-for-bit within one build; cross-language bit-exactness
is not promised.  Draw order per simulation: alpha array, beta array,
outcome uniforms, choice-time uniforms for A, then for B.

Run logs are JSON Lines files, written and parsed a chunk of records at a
time.  ``tally_run_log`` (behind the CLI's ``estimate`` and ``audit``)
counts a log in memory that does not grow with its length;
``read_run_log`` loads the whole log.  Both reject records that break the
time order above.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import (
    EmptySettingPair,
    MixedScenario,
    ScenarioMismatch,
    SchemaError,
    SizeLimit,
)
from .model import (
    _SCENARIO_KEYS,
    Alphabet,
    Behavior,
    BellFunctional,
    Scenario,
    _check_fields,
    _scenario_from_json,
    _scenario_to_json,
    evaluate_functional,
)

SPEED_OF_LIGHT = 299792458.0


@dataclass(frozen=True)
class Geometry:
    """Spacetime configuration of one run: station separation and duration."""

    L: float
    T: float
    c: float = SPEED_OF_LIGHT

    def __post_init__(self):
        if not (self.L > 0.0 and self.T > 0.0 and self.c > 0.0):
            raise ValueError(f"L, T, c must be positive, got {self.L}, {self.T}, {self.c}")


@dataclass(frozen=True)
class LocalityAudit:
    passed: bool
    margin_meters: float


def locality_audit(g: Geometry) -> LocalityAudit:
    """Check the strict spacelike-separation condition L > T*c."""
    margin = g.L - g.T * g.c
    return LocalityAudit(margin > 0.0, margin)


@dataclass(frozen=True, eq=False)
class RunLog:
    """Column-oriented run stream: one array per record field, outcomes as alphabet indices."""

    scenario: Scenario
    index: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    a_index: np.ndarray
    b_index: np.ndarray
    t_choice_a: np.ndarray
    t_choice_b: np.ndarray
    t_report: np.ndarray

    def __len__(self) -> int:
        return self.alpha.size


def simulate(b: Behavior, n_runs: int, seed: int, g: Geometry, stream: int = 0) -> RunLog:
    """Draw ``n_runs`` records from the behavior under the run protocol.

    Settings are i.i.d. uniform and independent across sides; outcomes come
    from the behavior's block at the drawn settings; choice times are
    uniform in [-T, 0) and every report lands exactly at t=T.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    sa, sb, ka, kb = b.scenario.shape
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
    alpha = rng.integers(0, sa, size=n_runs)
    beta = rng.integers(0, sb, size=n_runs)
    u = rng.random(n_runs)
    tca = (rng.random(n_runs) - 1.0) * g.T
    tcb = (rng.random(n_runs) - 1.0) * g.T

    cum = b.p.reshape(sa, sb, ka * kb).cumsum(axis=-1)
    cum[:, :, -1] = 1.0  # guard the top edge against rounding
    flat = (u[:, None] >= cum[alpha, beta]).sum(axis=1)
    return RunLog(
        scenario=b.scenario,
        index=np.arange(n_runs),
        alpha=alpha,
        beta=beta,
        a_index=flat // kb,
        b_index=flat % kb,
        t_choice_a=tca,
        t_choice_b=tcb,
        t_report=np.full(n_runs, float(g.T)),
    )


@dataclass(frozen=True, eq=False)
class Tally:
    """Outcome counts per (alpha, beta, a, b); totals are per-block sums."""

    scenario: Scenario
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        if counts.shape != self.scenario.shape:
            raise MixedScenario(
                f"count shape {counts.shape} does not match scenario shape {self.scenario.shape}"
            )
        if counts.min(initial=0) < 0 or not np.issubdtype(counts.dtype, np.integer):
            raise MixedScenario("counts must be nonnegative integers")
        counts = counts.astype(np.int64).copy()
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    @property
    def totals(self) -> np.ndarray:
        return self.counts.sum(axis=(2, 3))


def tally(runs: RunLog) -> Tally:
    """Count a run log's records per (alpha, beta, a, b) in its own scenario."""
    sa, sb, ka, kb = runs.scenario.shape
    for values, top in ((runs.alpha, sa), (runs.beta, sb), (runs.a_index, ka), (runs.b_index, kb)):
        if values.size and (values.min() < 0 or values.max() >= top):
            raise MixedScenario("run log indices do not fit the scenario")
    flat = ((runs.alpha * sb + runs.beta) * ka + runs.a_index) * kb + runs.b_index
    counts = np.bincount(flat, minlength=sa * sb * ka * kb).reshape(runs.scenario.shape)
    return Tally(runs.scenario, counts)


def estimate(t: Tally) -> tuple[Behavior, np.ndarray]:
    """Relative frequencies per block plus their Wald standard errors."""
    totals = t.totals
    empty = np.argwhere(totals == 0)
    if empty.size:
        raise EmptySettingPair(int(empty[0, 0]), int(empty[0, 1]))
    denom = totals[:, :, None, None].astype(float)
    p_hat = t.counts / denom
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / denom)
    return Behavior(t.scenario, p_hat), stderr


def functional_interval(t: Tally, f: BellFunctional) -> tuple[float, float]:
    """Point estimate of the functional and its propagated standard error.

    Blocks are treated as independent multinomials:
    sigma^2 = sum over blocks of (E[c^2] - E[c]^2) / N_block under the
    block's estimated distribution.
    """
    if f.scenario != t.scenario:
        raise ScenarioMismatch("functional and tally built for different scenarios")
    b_hat, _ = estimate(t)
    value = evaluate_functional(f, b_hat)
    mean = (f.coefficients * b_hat.p).sum(axis=(2, 3))
    second = (f.coefficients**2 * b_hat.p).sum(axis=(2, 3))
    block_var = np.maximum(second - mean**2, 0.0) / t.totals
    return value, float(math.sqrt(block_var.sum()))


@dataclass(frozen=True)
class RandomnessAudit:
    """Pearson chi-square checks of the settings histogram."""

    chi_square_uniformity: float
    dof_uniformity: int
    chi_square_independence: float
    dof_independence: int


def randomness_audit(t: Tally) -> RandomnessAudit:
    """Test the settings histogram against uniformity and independence."""
    h = t.totals.astype(float)
    total = h.sum()
    if total < 1:
        raise ValueError("randomness audit needs at least one run")
    sa, sb = h.shape
    expected_uniform = total / (sa * sb)
    chi_uniform = float(((h - expected_uniform) ** 2 / expected_uniform).sum())
    row = h.sum(axis=1, keepdims=True)
    col = h.sum(axis=0, keepdims=True)
    expected_product = row * col / total
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(expected_product > 0, (h - expected_product) ** 2 / expected_product, 0.0)
    return RandomnessAudit(
        chi_square_uniformity=chi_uniform,
        dof_uniformity=sa * sb - 1,
        chi_square_independence=float(terms.sum()),
        dof_independence=(sa - 1) * (sb - 1),
    )


# ---------------------------------------------------------------------------
# Run log (JSON Lines) and tally file formats
# ---------------------------------------------------------------------------

_RECORD_KEYS = ("i", "alpha", "beta", "a", "b", "tca", "tcb", "tr")
_RECORD_LINE = '{"i":%d,"alpha":%d,"beta":%d,"a":"%s","b":"%s","tca":%s,"tcb":%s,"tr":%s}\n'
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SYMBOL_CODES = {"+": 0, "-": 1, "0": 2}  # the index of each symbol in every alphabet that has it
_CHUNK_RECORDS = 1 << 14  # records formatted or parsed per step
# Most setting pairs, (largest alpha + 1) * (largest beta + 1), a run log may
# name; it caps the count array of a read log at 4.7 MB.
SETTING_PAIR_CAP = 1 << 16


def write_run_log(log: RunLog, path) -> None:
    """Write the log as JSON Lines, one compact ``json.dumps`` object per record.

    Records are formatted a chunk at a time from column slices; floats are
    written as ``repr`` writes them, as ``json.dumps`` does.
    """
    sym_a = np.array(log.scenario.outcomes_a.symbols)
    sym_b = np.array(log.scenario.outcomes_b.symbols)
    with open(path, "w", encoding="utf-8") as handle:
        for start in range(0, len(log), _CHUNK_RECORDS):
            part = slice(start, start + _CHUNK_RECORDS)
            # Report times repeat (simulate writes one value), so each distinct one is formatted
            # once; they are told apart by their bits, which keeps 0.0 and -0.0 apart.
            report = np.asarray(log.t_report[part], dtype=np.float64)
            bits, inverse = np.unique(report.view(np.int64), return_inverse=True)
            report_texts = _json_floats(bits.view(np.float64))
            rows = zip(
                log.index[part].tolist(),
                log.alpha[part].tolist(),
                log.beta[part].tolist(),
                sym_a[log.a_index[part]].tolist(),
                sym_b[log.b_index[part]].tolist(),
                _json_floats(log.t_choice_a[part]),
                _json_floats(log.t_choice_b[part]),
                [report_texts[k] for k in inverse.tolist()],
            )
            handle.write("".join([_RECORD_LINE % row for row in rows]))


def _json_floats(values: np.ndarray) -> list[str]:
    values = np.asarray(values, dtype=np.float64)
    texts = list(map(float.__repr__, values.tolist()))
    if not np.isfinite(values).all():
        texts = [_JSON_NONFINITE.get(text, text) for text in texts]
    return texts


def read_run_log(path) -> RunLog:
    """Parse a JSON Lines run log into memory; the scenario is inferred from the records.

    Setting counts are the largest observed index plus one, and a side's
    alphabet is three-symbol exactly when the no-detection symbol appears.
    A log that names more than ``SETTING_PAIR_CAP`` setting pairs raises
    SizeLimit.
    Records that break the protocol's time order (choices before t=0,
    report not before t=0) are schema errors.  The whole log is held as
    columns; ``tally_run_log``, which the CLI's ``estimate`` and ``audit``
    use, counts a log in bounded memory instead.
    """
    columns = [np.concatenate(parts) for parts in zip(*_parse_run_log(path))]
    if not columns:
        raise SchemaError(f"{path}: run log contains no records")
    index, alpha, beta, a_index, b_index, tca, tcb, tr = columns
    sa, sb = _setting_grid(path, (0, 0), alpha, beta)
    scenario = _infer_scenario(sa, sb, bool((a_index == 2).any()), bool((b_index == 2).any()))
    return RunLog(scenario, index, alpha, beta, a_index, b_index, tca, tcb, tr)


def tally_run_log(path) -> Tally:
    """Count a JSON Lines run log chunk by chunk, never holding the whole log.

    Equals ``tally(read_run_log(path))``, with the same checks and the same
    scenario inference; memory does not grow with the number of runs.
    """
    counts = np.zeros((0, 0, 3, 3), dtype=np.int64)  # (alpha, beta, a, b) over all three symbols
    for _, alpha, beta, a_code, b_code, _, _, _ in _parse_run_log(path):
        sa, sb = _setting_grid(path, counts.shape[:2], alpha, beta)
        counts = np.pad(counts, ((0, sa - counts.shape[0]), (0, sb - counts.shape[1]), (0, 0), (0, 0)))
        flat = ((alpha * sb + beta) * 3 + a_code) * 3 + b_code
        counts += np.bincount(flat, minlength=counts.size).reshape(counts.shape)
    if not counts.size:
        raise SchemaError(f"{path}: run log contains no records")
    scenario = _infer_scenario(
        counts.shape[0], counts.shape[1], bool(counts[:, :, 2, :].any()), bool(counts[:, :, :, 2].any())
    )
    _, _, ka, kb = scenario.shape
    return Tally(scenario, counts[:, :, :ka, :kb])


def _setting_grid(path, seen: tuple[int, int], alpha: np.ndarray, beta: np.ndarray) -> tuple[int, int]:
    """Setting counts that cover ``seen`` and the records' indices, within ``SETTING_PAIR_CAP``."""
    sa = max(seen[0], int(alpha.max()) + 1)
    sb = max(seen[1], int(beta.max()) + 1)
    if sa * sb > SETTING_PAIR_CAP:
        raise SizeLimit(f"{path}: {sa} x {sb} settings exceed the cap of {SETTING_PAIR_CAP} setting pairs")
    return sa, sb


def _infer_scenario(settings_a: int, settings_b: int, null_a: bool, null_b: bool) -> Scenario:
    """A side's alphabet is three-symbol exactly when its no-detection symbol was seen."""
    alphabets = (Alphabet.PLUS_MINUS, Alphabet.PLUS_MINUS_NULL)
    return Scenario(settings_a, settings_b, alphabets[null_a], alphabets[null_b])


def _parse_run_log(path) -> Iterator[tuple[np.ndarray, ...]]:
    """Yield validated record columns, in ``_RECORD_KEYS`` order, per chunk of lines.

    Symbols come as their ``_SYMBOL_CODES``.  Blank lines are skipped.
    Beyond the schema, each record must keep the protocol's time order:
    both choices end before t=0 and the report is not before t=0.
    """
    with open(path, "r", encoding="utf-8") as handle:
        first_lineno = 1
        while raw := list(itertools.islice(handle, _CHUNK_RECORDS)):
            lines = [line for line in map(str.strip, raw) if line]
            if lines:
                try:
                    columns = _parse_chunk(lines)
                except _RecordFault as fault:
                    where = path
                    if fault.k is not None:
                        linenos = [first_lineno + j for j, line in enumerate(raw) if line.strip()]
                        where = f"{path}:{linenos[fault.k]}"
                    raise SchemaError(f"{where}: {fault}") from fault
                yield columns
            first_lineno += len(raw)


class _RecordFault(Exception):
    """A fault in a chunk, at nonblank line ``k`` of it when one line is to blame."""

    def __init__(self, message: str, k: int | None = None):
        super().__init__(message)
        self.k = k


def _parse_chunk(lines: list[str]) -> tuple[np.ndarray, ...]:
    """One ``json.loads`` call per chunk; line by line only to find a line that fails."""
    text = "\n,".join(lines)
    # Lines hold no newline, so one object per line means every join reads "}\n,{".
    framed = text.count("}\n,{") == len(lines) - 1 and text[0] == "{" and text[-1] == "}"
    try:
        rows = json.loads("[" + text + "]") if framed else None
    except json.JSONDecodeError:
        rows = None
    if rows is None or len(rows) != len(lines):
        rows = [_parse_line(line, k) for k, line in enumerate(lines)]
    try:
        fields = [[row[key] for row in rows] for key in _RECORD_KEYS]
        exact = sum(map(len, rows)) == len(_RECORD_KEYS) * len(rows)
    except (KeyError, TypeError):
        exact = False
    if not exact:
        bad = next(k for k, row in enumerate(rows) if not isinstance(row, dict) or row.keys() != set(_RECORD_KEYS))
        raise _RecordFault(f"record fields must be {sorted(_RECORD_KEYS)}", bad)
    n = len(rows)
    try:
        index, alpha, beta = (np.fromiter(fields[k], np.int64, n) for k in range(3))
        tca, tcb, tr = (np.fromiter(fields[k], np.float64, n) for k in range(5, 8))
    except (TypeError, ValueError, OverflowError) as exc:
        raise _RecordFault(f"malformed record value: {exc}") from exc
    a_code, b_code = _symbol_codes(fields[3]), _symbol_codes(fields[4])
    for bad, what in (
        ((alpha < 0) | (beta < 0), "negative setting index"),
        (~(tca < 0.0) | ~(tcb < 0.0), "input choices must end before t=0"),
        (~(tr >= 0.0), "outputs cannot be reported before t=0"),
    ):
        if bad.any():
            raise _RecordFault(what, int(bad.argmax()))
    return index, alpha, beta, a_code, b_code, tca, tcb, tr


def _parse_line(line: str, k: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise _RecordFault(f"not valid JSON: {exc}", k) from exc


def _symbol_codes(values: list) -> np.ndarray:
    try:
        return np.fromiter(map(_SYMBOL_CODES.__getitem__, values), np.int64, len(values))
    except (KeyError, TypeError):
        # A value whose str() is a symbol (say the number 0) reads as that symbol.
        values = list(map(str, values))
        unknown = set(values) - set(_SYMBOL_CODES)
        if unknown:
            raise _RecordFault(f"unknown outcome symbols {sorted(unknown)}") from None
        return np.fromiter(map(_SYMBOL_CODES.__getitem__, values), np.int64, len(values))


_TALLY_KEYS = _SCENARIO_KEYS | {"n", "totals"}


def tally_to_json_dict(t: Tally) -> dict:
    return {**_scenario_to_json(t.scenario), "n": t.counts.tolist(), "totals": t.totals.tolist()}


def tally_from_json_dict(data: dict) -> Tally:
    _check_fields(data, _TALLY_KEYS, "tally")
    scenario, counts, totals = _scenario_from_json(data, "tally", n=np.int64, totals=np.int64)
    result = Tally(scenario, counts)
    if totals.shape != result.totals.shape or not np.array_equal(totals, result.totals):
        raise SchemaError("tally totals do not equal the block sums")
    return result
