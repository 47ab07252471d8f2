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
outcome uniforms, choice-time uniforms for A, then for B.  Records are
drawn, laid out and parsed ``_CHUNK_RECORDS`` at a time, in that order
whatever the size (``simulate_chunks``): each of the five columns has its
own generator, started where one draw of the whole columns would reach it.

Run logs are JSON Lines files.  The writer formats a chunk of records at
a time in numpy: a time's digits are the Schubfach algorithm's shortest
round-trip decimal, laid out exactly as ``repr`` lays them out, and zeros,
subnormals, NaN and the infinities go through ``repr`` itself (see
``numtext``).  The CLI's ``simulate`` hands each drawn chunk to the writer
as it comes, so, unlike the library's ``simulate``, it never holds the
whole log.  ``tally_run_log`` (behind the CLI's ``estimate`` and
``audit``) counts a log in memory that does not grow with its length;
``read_run_log`` loads the whole log.  Both read the file as bytes, a block
at a time into one reused buffer, with line ends as text mode reads them,
and both reject records that break the time order above.  A group of lines
whose every line is in the writer's own form is read by a vectorized byte
automaton, with no dict per record; a group it declines is decoded as
strict UTF-8 and read record by record through ``json``, which alone
defines a valid log and words every error, naming the first faulty line.
"""

from __future__ import annotations

import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    EmptySettingPair,
    MixedScenario,
    ScenarioMismatch,
    SchemaError,
    SizeLimit,
)
from .model import Alphabet, Behavior, BellFunctional, Scenario, evaluate_functional

SPEED_OF_LIGHT = 299792458.0
_CHUNK_RECORDS = 1 << 12  # records per step: simulate draws, the writer lays out and the reader walks this many


@dataclass(frozen=True)
class Geometry:
    """Spacetime configuration of one run: station separation (m) and duration (s)."""

    L: float
    T: float

    def __post_init__(self):
        if not (0.0 < self.L < math.inf and 0.0 < self.T < math.inf):
            raise ValueError(f"L and T must be finite and positive, got {self.L}, {self.T}")
        if not self.T > sys.float_info.min:  # else the latest choice time, -2**-53 * T, rounds to -0.0
            raise ValueError(f"T must exceed {sys.float_info.min!r}, the least normal double, got {self.T}")


@dataclass(frozen=True)
class LocalityAudit:
    passed: bool
    margin_meters: float


def locality_audit(g: Geometry) -> LocalityAudit:
    """Check the strict spacelike-separation condition L > T*c."""
    margin = g.L - g.T * SPEED_OF_LIGHT
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
    uniform in [-T, 0) and every report lands exactly at t=T.  The columns
    are filled from ``simulate_chunks``, so this log holds the records the
    CLI's ``simulate`` writes a chunk at a time.
    """
    chunks = simulate_chunks(b, n_runs, seed, g, stream)  # checks n_runs before any column is made
    drawn = [np.empty(n_runs, dtype) for dtype in list(_COLUMN_DTYPES.values())[1:-1]]
    for index, *values, _ in chunks:
        for column, part in zip(drawn, values):
            column[index[0]:index[0] + index.size] = part
    # The index and report columns are made after the draw, which keeps the peak at eight columns.
    return RunLog(b.scenario, np.arange(n_runs), *drawn, np.full(n_runs, float(g.T)))


def simulate_chunks(b: Behavior, n_runs: int, seed: int, g: Geometry,
                    stream: int = 0) -> Iterator[tuple[np.ndarray, ...]]:
    """``simulate``'s record columns, in ``_RECORD_KEYS`` order, ``_CHUNK_RECORDS`` records at a time.

    The records are those of one draw of each whole column in the module's
    draw order; each column has its own generator, placed where that draw
    starts it (see ``_column_generators``).  A record's outcome pair is the
    number of its block's cumulative probabilities at or below its uniform.
    ``n_runs`` is checked, and the generators placed, before the first
    chunk is asked for, so a bad count raises before a file is opened.
    """
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs}")
    sa, sb, ka, kb = b.scenario.shape
    # levels[j, pair]: the probability of outcome pairs 0..j at a setting pair.  The top level,
    # 1 up to rounding, is left out: a uniform in [0, 1) is below 1, whatever the rounding.
    levels = b.p.reshape(sa * sb, ka * kb).cumsum(axis=1)[:, :-1].T.copy()
    alphas, betas, outcomes, choices_a, choices_b = _column_generators(seed, stream, n_runs, (sa, sb))

    def chunks():
        for start in range(0, n_runs, _CHUNK_RECORDS):
            m = min(_CHUNK_RECORDS, n_runs - start)
            alpha, beta = alphas.integers(0, sa, size=m), betas.integers(0, sb, size=m)
            u, pair = outcomes.random(m), alpha * sb + beta
            flat = np.zeros(m, np.int64)  # the outcome pair: the number of levels at or below u
            for level in levels:
                flat += u >= level.take(pair)
            yield (np.arange(start, start + m), alpha, beta, flat // kb, flat % kb,
                   (choices_a.random(m) - 1.0) * g.T, (choices_b.random(m) - 1.0) * g.T, np.full(m, float(g.T)))

    return chunks()


def _column_generators(seed: int, stream: int, n_runs: int, settings: tuple[int, int]) -> list[np.random.Generator]:
    """Generators for alpha, beta, the outcome uniforms and the two choice times, each placed where its column starts.

    ``integers`` drawn in chunks follows the same sequence as one draw
    (PCG64 keeps a spare 32-bit half in its state), but it may reject
    draws, so where beta and the uniforms start is found by drawing and
    dropping the settings a chunk at a time (about 7 ms per 1e6 runs on a
    2-core x86-64).  ``random`` takes one 64-bit draw per value, so the
    choice-time generators are the uniforms' one advanced by ``n_runs`` and
    ``2 * n_runs`` draws.
    """
    seq = np.random.SeedSequence(seed, spawn_key=(stream,))
    generators = [np.random.default_rng(seq) for _ in range(5)]
    for k, top in enumerate(settings, 1):
        generators[k].bit_generator.state = generators[k - 1].bit_generator.state
        for start in range(0, n_runs, _CHUNK_RECORDS):
            generators[k].integers(0, top, size=min(_CHUNK_RECORDS, n_runs - start))
    for k in (3, 4):
        generators[k].bit_generator.state = generators[2].bit_generator.state
        generators[k].bit_generator.advance((k - 2) * n_runs)
    return generators


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


def _check_indices(runs: RunLog) -> None:
    """Raise MixedScenario when a setting or outcome index falls outside the log's scenario."""
    sa, sb, ka, kb = runs.scenario.shape
    for values, top in ((runs.alpha, sa), (runs.beta, sb), (runs.a_index, ka), (runs.b_index, kb)):
        if values.size and (values.min() < 0 or values.max() >= top):
            raise MixedScenario("run log indices do not fit the scenario")


def tally(runs: RunLog) -> Tally:
    """Count a run log's records per (alpha, beta, a, b) in its own scenario."""
    _check_indices(runs)
    sa, sb, ka, kb = runs.scenario.shape
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
# Run log (JSON Lines) file format
# ---------------------------------------------------------------------------

# The one statement of a record's form: its keys, and which hold integers, are read from it.
_RECORD_LINE = '{"i":%d,"alpha":%d,"beta":%d,"a":"%s","b":"%s","tca":%s,"tcb":%s,"tr":%s}\n'
_RECORD_KEYS = tuple(re.findall(r'"(\w+)":', _RECORD_LINE))
# The literal text around the slots, which the writer fills and the automaton reads.
_RECORD_PIECES = re.split("%[ds]", _RECORD_LINE)
# Each number field's column dtype, read from its slot: %d an integer, a bare %s a time.
_NUMBER_DTYPES = {key: np.int64 if slot == "d" else np.float64
                  for key, slot in re.findall(r'"(\w+)":%(\w)', _RECORD_LINE)}
# Each field's column dtype, in record order; the symbols a and b are read as int64 codes.
_COLUMN_DTYPES = {key: _NUMBER_DTYPES.get(key, np.int64) for key in _RECORD_KEYS}
# The index of each symbol in every alphabet that has it: the two-symbol one is a prefix.
_SYMBOL_CODES = {symbol: code for code, symbol in enumerate(Alphabet.PLUS_MINUS_NULL.symbols)}
_READ_BYTES = 1 << 20  # bytes the reader reads per block; a longer line grows its buffer
# Most setting pairs, (largest alpha + 1) * (largest beta + 1), a run log may
# name; it caps the count array of a read log at 4.7 MB.
SETTING_PAIR_CAP = 1 << 16


def write_run_log(log: RunLog, path) -> None:
    """Write the log as JSON Lines, one compact ``json.dumps`` object per record.

    The log goes to ``write_run_chunks`` in slices of ``_CHUNK_RECORDS``
    records.  A setting or outcome index outside the log's scenario raises
    MixedScenario, before the file is opened.
    """
    _check_indices(log)
    columns = (log.index, log.alpha, log.beta, log.a_index, log.b_index, log.t_choice_a, log.t_choice_b, log.t_report)
    write_run_chunks(log.scenario, (tuple(column[start:start + _CHUNK_RECORDS] for column in columns)
                                    for start in range(0, len(log), _CHUNK_RECORDS)), path)


def write_run_chunks(scenario: Scenario, chunks: Iterable[tuple[np.ndarray, ...]], path) -> None:
    """Write each chunk of record columns, in ``_RECORD_KEYS`` order, as JSON Lines, holding one chunk at a time.

    Records are formatted in numpy: each field is a few 8-byte words of
    text, NUL-padded, laid between the literal text of ``_RECORD_LINE`` in
    a block whose bytes, less their NULs, are one write.  Times are written
    as ``repr`` writes them, as ``json.dumps`` does: their digits come from
    the Schubfach algorithm, and zeros, subnormals, NaN and the infinities
    go through ``repr`` itself.  Outcomes are indices into the scenario's
    alphabets, and nothing checks that the indices fit it.
    """
    from . import numtext  # on the first write: a process that only reads never loads the formatters

    sides = (scenario.outcomes_a, scenario.outcomes_b)
    symbols_a, symbols_b = (numtext.text_words(side.symbols)[:, 0] for side in sides)
    # glibc's malloc hands the top of its heap back whenever more than its trim threshold, at
    # first 128 KiB, is free there, so each chunk's temporaries would be page-faulted afresh.
    # Freeing a mapped block, never touched, raises that threshold to twice its size: 8 MiB.
    np.empty(_CHUNK_RECORDS << 10, np.uint8)
    with open(path, "wb") as handle:
        for index, alpha, beta, a_index, b_index, tca, tcb, tr in chunks:
            # Report times repeat (simulate writes one value), so each distinct one is formatted
            # once; they are told apart by their bits, which keeps 0.0 and -0.0 apart.
            bits, inverse = np.unique(np.asarray(tr, dtype=np.float64).view(np.int64), return_inverse=True)
            handle.write(_join_fields((  # held by no name, so freed before the next chunk's
                numtext.integer_words(index),
                numtext.integer_words(alpha),
                numtext.integer_words(beta),
                symbols_a.take(a_index)[None],
                symbols_b.take(b_index)[None],
                numtext.float_words(tca),
                numtext.float_words(tcb),
                numtext.float_words(bits.view(np.float64)).take(inverse.ravel(), axis=1),
            )))


def _join_fields(fields: tuple[np.ndarray, ...]) -> bytearray:
    """The records whose fields are ``fields``, each (words, n) uint64 text, as one block without its NULs."""
    pieces = [piece.encode("ascii") for piece in _RECORD_PIECES]
    row, starts = bytearray(pieces[0]), []
    for field, piece in zip(fields, pieces[1:], strict=True):
        starts.append(len(row))
        row += bytes(8 * len(field)) + piece
    text = bytearray(fields[0].shape[1] * len(row))
    block = np.frombuffer(text, np.uint8).reshape(-1, len(row))
    block[:] = np.frombuffer(row, np.uint8)
    for field, start in zip(fields, starts):
        block[:, start:start + 8 * len(field)].view("<u8")[:] = field.T
    return text.translate(None, b"\0")


def read_run_log(path) -> RunLog:
    """Parse a JSON Lines run log into memory; the scenario is inferred from the records.

    Setting counts are the largest observed index plus one, and a side's
    alphabet is three-symbol exactly when the no-detection symbol appears.
    A log that names more than ``SETTING_PAIR_CAP`` setting pairs raises
    SizeLimit.
    Records that break the protocol's time order (choices before t=0,
    report not before t=0) are schema errors.  The file is read as bytes,
    a block at a time, as ``tally_run_log`` reads it, but the whole log is
    held as columns; ``tally_run_log``, which the CLI's ``estimate`` and
    ``audit`` use, counts a log in bounded memory instead.
    """
    groups = list(_parse_run_log(path))
    if not groups:
        raise SchemaError(f"{path}: run log contains no records")
    index, alpha, beta, a_index, b_index, tca, tcb, tr = map(np.concatenate, zip(*(columns for _, columns in groups)))
    scenario = _infer_scenario(*groups[-1][0], bool((a_index == 2).any()), bool((b_index == 2).any()))
    return RunLog(scenario, index, alpha, beta, a_index, b_index, tca, tcb, tr)


def tally_run_log(path) -> Tally:
    """Count a JSON Lines run log block by block, never holding the whole log.

    Equals ``tally(read_run_log(path))``, with the same checks and the same
    scenario inference.  Memory does not grow with the number of runs: one
    reused ``_READ_BYTES`` buffer (larger only to hold a longer line), its
    line ends, and a walk's gathered copy of at most ``_CHUNK_RECORDS``
    lines (see ``_parse_run_log``).
    """
    counts = np.zeros((0, 0, 3, 3), dtype=np.int64)  # (alpha, beta, a, b) over all three symbols
    for (sa, sb), (_, alpha, beta, a_code, b_code, _, _, _) in _parse_run_log(path, full=False):
        if (sa, sb) != counts.shape[:2]:
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


def _setting_grid(path, lineno: int, seen: tuple[int, int], alpha: int, beta: int) -> tuple[int, int]:
    """Setting counts that cover ``seen`` and the setting indices ``alpha`` and ``beta``, within ``SETTING_PAIR_CAP``.

    Past the cap, SizeLimit names line ``lineno`` of ``path``.
    """
    sa, sb = max(seen[0], alpha + 1), max(seen[1], beta + 1)
    if sa * sb > SETTING_PAIR_CAP:
        raise SizeLimit(f"{path}:{lineno}: {sa} x {sb} settings exceed the cap of {SETTING_PAIR_CAP} setting pairs")
    return sa, sb


def _infer_scenario(settings_a: int, settings_b: int, null_a: bool, null_b: bool) -> Scenario:
    """A side's alphabet is three-symbol exactly when its no-detection symbol was seen."""
    alphabets = (Alphabet.PLUS_MINUS, Alphabet.PLUS_MINUS_NULL)
    return Scenario(settings_a, settings_b, alphabets[null_a], alphabets[null_b])


def _parse_run_log(path, full: bool = True) -> Iterator[tuple[tuple[int, int], tuple[np.ndarray | None, ...]]]:
    """Yield the setting counts so far and validated record columns, in ``_RECORD_KEYS`` order, per group of lines.

    The file is read in binary mode, ``_READ_BYTES`` at a time, into one
    reused buffer.  Each block is cut after its last line end and the rest
    carried over to the next read; a line longer than the buffer doubles
    it.  Line ends are read as text mode reads them: each ``\\r\\n`` and
    lone ``\\r`` becomes ``\\n`` in place.  Symbols come as their
    ``_SYMBOL_CODES``.  Blank lines are skipped.  Beyond the schema, each
    record must keep the protocol's time order: both choices end before
    t=0 and the report is not before t=0.  A block's lines go in groups of
    at most ``_CHUNK_RECORDS``.  A group whose every line is in the writer's
    own form is read by ``_writer_form_columns``, and its index and time
    columns are None unless ``full``.  Any other group is read line by line
    through ``_json_columns``: strict UTF-8, then ``_json_record``, which
    alone defines a valid log and words every error, naming the first
    faulty line.  So that the first fault in file order is raised, a
    writer-form group that passes ``SETTING_PAIR_CAP`` is read again
    through ``json``, which checks the setting counts after each record.

    Memory does not grow with the log: the buffer (``_READ_BYTES`` and
    ``_LINE_MAX + 1`` bytes of padding, or up to twice the longest line),
    a block's line ends (8 bytes a line; a read adds at most
    ``_READ_BYTES`` bytes and the carried-over tail holds no line end, so
    8 MiB for a block of blank lines, found through a 1 MiB mask), and a
    group's gathered copy of at most ``_CHUNK_RECORDS * (_LINE_MAX + 1)``
    bytes (1.05 MB), held twice while it is made.  With lines under 1 MiB,
    that is under 12 MiB.
    """
    size = _READ_BYTES
    data = np.empty(size + _LINE_MAX + 1, np.uint8)  # bytes past the read ones pad the automaton's gather
    held, lineno, grid = 0, 1, (0, 0)
    with open(path, "rb") as handle:
        while True:
            if held == size:  # a full buffer with no line end: double it
                grown = np.empty(2 * size + _LINE_MAX + 1, np.uint8)
                grown[:held] = data[:held]
                data, size = grown, 2 * size
            filled = held + handle.readinto(data[held:min(size, held + _READ_BYTES)])
            last = filled == held
            fresh = max(held - 1, 0)  # the carried-over tail holds no line end but perhaps a final \r
            if (data[fresh:filled] == ord("\r")).any():
                filled = _unify_line_ends(data, filled, last)
            if last and filled and data[filled - 1] != ord("\n"):  # the last line may have no newline
                data[filled] = ord("\n")
                filled += 1
            ends = np.flatnonzero(data[fresh:filled] == ord("\n"))
            ends += fresh
            for first in range(0, ends.size, _CHUNK_RECORDS):
                group = ends[first:first + _CHUNK_RECORDS]
                starts = np.concatenate(([ends[first - 1] + 1 if first else 0], group[:-1] + 1))
                columns = _writer_form_columns(data, starts, group, full)
                if columns is not None:
                    try:
                        grid = _setting_grid(path, lineno + first, grid, int(columns[1].max()), int(columns[2].max()))
                    except SizeLimit:  # read again through json, which names the record that passed the cap
                        columns = None
                if columns is None:
                    lines = data[starts[0]:group[-1]].tobytes().split(b"\n")
                    columns, grid = _json_columns(path, lines, lineno + first, grid)
                if columns is not None:
                    yield grid, columns
            if last:
                return
            lineno += ends.size
            cut = int(ends[-1]) + 1 if ends.size else 0
            held = filled - cut
            data[:held] = data[cut:filled]


def _unify_line_ends(data: np.ndarray, filled: int, last: bool) -> int:
    """Turn each ``\\r\\n`` and lone ``\\r`` of ``data[:filled]`` into ``\\n`` in place; return the new length.

    A ``\\r`` that ends the bytes read stays, unless the file ends there:
    its ``\\n`` may come with the next read.
    """
    text = data[:filled]
    returns = np.flatnonzero(text == ord("\r"))
    paired = text.take(returns + 1, mode="clip") == ord("\n")  # a final \r reads itself
    lone = returns[~paired]
    if not last and lone.size and lone[-1] == filled - 1:
        lone = lone[:-1]
    text[lone] = ord("\n")
    kept = np.delete(text, returns[paired])
    data[:kept.size] = kept
    return kept.size


def _json_columns(path, lines: list[bytes], first_lineno: int, grid: tuple[int, int]) -> tuple[list | None, tuple]:
    """The record columns of ``lines`` through ``_json_record`` (None if all are blank) and the setting counts ``grid``.

    Each line that is not empty is decoded as strict UTF-8; the first line
    that is not UTF-8 or not a valid record raises SchemaError naming it,
    and the first record past ``SETTING_PAIR_CAP`` raises SizeLimit.
    """
    records = []
    for lineno, raw in enumerate(lines, first_lineno):
        if not raw:
            continue
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as fault:
            raise SchemaError(f"{path}:{lineno}: not valid UTF-8: {fault.reason} at byte {fault.start + 1}") from fault
        if line:
            try:
                records.append(_json_record(line))
            except ValueError as fault:
                raise SchemaError(f"{path}:{lineno}: {fault}") from fault
            grid = _setting_grid(path, lineno, grid, records[-1][1], records[-1][2])
    return (list(map(np.array, zip(*records), _COLUMN_DTYPES.values())) if records else None), grid


def _json_record(line: str) -> tuple:
    """One line's record through ``json``: its values in ``_RECORD_KEYS`` order, symbols as codes.

    The checks run in a fixed order, and the first that fails raises
    ValueError with its message: the field set; each number's JSON type
    (an int, never a bool, for the index and settings), then whether it
    fits its column's dtype; the symbols; the setting indices; the choice
    times; the report time.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if type(record) is not dict or record.keys() != _COLUMN_DTYPES.keys():
        raise ValueError(f"record fields must be {sorted(_RECORD_KEYS)}")
    for key, dtype in _NUMBER_DTYPES.items():
        value = record[key]
        if type(value) is not int and (type(value) is not float or dtype is np.int64):
            kind = "integer" if dtype is np.int64 else "number"
            raise ValueError(f"malformed record value: {key} {value!r} is not a JSON {kind}")
        if type(value) is int:
            try:
                dtype(value)
            except OverflowError as exc:  # an integer beyond int64, or beyond float64 for a time
                raise ValueError(f"malformed record value: {exc}") from exc
    i, alpha, beta, a, b, tca, tcb, tr = map(record.__getitem__, _RECORD_KEYS)
    for symbol in (a, b):  # only the table's strings are symbols: the number 0 is none
        if type(symbol) is not str or symbol not in _SYMBOL_CODES:
            raise ValueError(f"unknown outcome symbols: {symbol!r} is none of {list(_SYMBOL_CODES)}")
    if alpha < 0 or beta < 0:
        raise ValueError("negative setting index")
    if not (tca < 0.0 and tcb < 0.0):
        raise ValueError("input choices must end before t=0")
    if not tr >= 0.0:
        raise ValueError("outputs cannot be reported before t=0")
    return i, alpha, beta, _SYMBOL_CODES[a], _SYMBOL_CODES[b], tca, tcb, tr


# The writer's own record form, read without building a dict per record.  One
# table of a deterministic automaton over bytes walks every line of a group in
# lockstep (Langdale & Lemire, "Parsing gigabytes of JSON per second", 2019, in
# numpy).  It accepts a line exactly when it is ``_RECORD_LINE`` with no
# whitespace, integers of at most 18 digits with no sign (a negative index,
# which only a hand-built log holds, is left to the json path), symbols from
# ``_SYMBOL_CODES``, choice times that are a minus sign and a mantissa with a
# nonzero digit, with a fraction or an exponent and a negative exponent of at
# most two digits, and a report time with no sign and a fraction or an
# exponent.  Such a line decodes through ``json`` to the same
# values, and its times keep the protocol's order whatever their digits: a
# 256-byte line leaves room for under 200 leading zeros, so with an exponent of
# -99 or more no choice time underflows to -0.0.

_LINE_MAX = 256  # longest line, in bytes without its newline, that the automaton reads
_DIGITS, _NONZERO = "0123456789", "123456789"
_ACCEPT, _START = 1, 2  # state 0 rejects every byte


@functools.cache
def _writer_form_table() -> np.ndarray:
    """Transitions ``table[state << 8 | byte] = next << 8``, both ends absorbing.

    States stay below 256, so a premultiplied state plus a byte indexes the
    table in ``uint16``.  Built on the first read, so a process that only
    writes logs never holds it.
    """
    table = np.zeros((256, 256), np.uint16)
    table[_ACCEPT] = _ACCEPT
    count = _START + 1

    def edge(sources, chars, target):
        table[np.ix_(sources, [ord(ch) for ch in chars])] = target

    def new(k=1):
        nonlocal count
        count += k
        return range(count - k, count)

    def text(sources, literal):
        for ch in literal:
            (state,) = new()
            edge(sources, ch, state)
            sources = [state]
        return sources

    def integer(sources):  # 0|[1-9]\d{0,17}, so every value fits int64
        zero, *digits = new(19)
        edge(sources, "0", zero)
        edge(sources, _NONZERO, digits[0])
        for state, following in zip(digits, digits[1:]):
            edge([state], _DIGITS, following)
        return [zero, *digits]

    def choice_time(sources):
        minus, zero, whole, zero_dot, dot, zero_fraction, fraction = new(7)
        exponent, negative, positive, negative_1, negative_2, positive_n = new(6)
        edge(sources, "-", minus)
        edge([minus], "0", zero)
        edge([minus], _NONZERO, whole)
        edge([whole], _DIGITS, whole)
        edge([zero], ".", zero_dot)
        edge([whole], ".", dot)
        edge([zero_dot, zero_fraction], "0", zero_fraction)
        edge([zero_dot, zero_fraction], _NONZERO, fraction)
        edge([dot, fraction], _DIGITS, fraction)
        edge([whole, fraction], "eE", exponent)  # a zero mantissa never reaches an exponent
        edge([exponent], "-", negative)
        edge([exponent], "+", positive)
        edge([negative], _DIGITS, negative_1)
        edge([negative_1], _DIGITS, negative_2)
        edge([exponent, positive, positive_n], _DIGITS, positive_n)
        return [fraction, negative_1, negative_2, positive_n]

    def report_time(sources):
        zero, whole, dot, fraction, exponent, sign, exponent_n = new(7)
        edge(sources, "0", zero)
        edge(sources, _NONZERO, whole)
        edge([whole], _DIGITS, whole)
        edge([zero, whole], ".", dot)
        edge([dot, fraction], _DIGITS, fraction)
        edge([zero, whole, fraction], "eE", exponent)
        edge([exponent], "+-", sign)
        edge([exponent, sign, exponent_n], _DIGITS, exponent_n)
        return [fraction, exponent_n]

    def symbol(sources):
        (state,) = new()
        edge(sources, "".join(_SYMBOL_CODES), state)
        return [state]

    # The literal text of _RECORD_LINE around its slots, and each slot's value grammar.
    *pieces, close = _RECORD_PIECES
    values = (integer, integer, integer, symbol, symbol, choice_time, choice_time, report_time)
    ends = [_START]
    for piece, value in zip(pieces, values, strict=True):
        ends = value(text(ends, piece))
    edge(text(ends, close.removesuffix("\n")), "\n", _ACCEPT)
    table = (table[:count] << 8).ravel()
    table.flags.writeable = False  # one cached table serves every read
    return table


_SYMBOL_BYTE_CODES = np.zeros(256, np.int64)
_SYMBOL_BYTE_CODES[[ord(symbol) for symbol in _SYMBOL_CODES]] = list(_SYMBOL_CODES.values())
# Where each value lies, read from _RECORD_PIECES: it starts _SLOT_STARTS[k] bytes past the colon
# of its key and ends _SLOT_ENDS[k] bytes before the colon of the next key, or the line's newline.
_SLOT_STARTS = [len(piece) - piece.index(":") for piece in _RECORD_PIECES[:-1]]
_SLOT_ENDS = [piece.index(":") for piece in _RECORD_PIECES[1:-1]] + [len(_RECORD_PIECES[-1]) - 1]


def _writer_form_columns(data: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                         full: bool) -> tuple[np.ndarray | None, ...] | None:
    """The record columns of the lines ``data[starts:ends]`` if every one is in the writer's own form, else None.

    ``ends`` holds each line's newline, and ``data`` runs on at least
    ``_LINE_MAX`` bytes past the last one.  The automaton walks a
    position-major copy of the lines, one byte of every line per step,
    updating its states in place.  The index and time columns are None
    unless ``full``.  An accepted line holds 8 colons, one after each key
    and none in a value, so each value's bounds lie at fixed offsets from
    the colon of its key and that of the next key, or the newline for ``tr``.
    """
    width = int((ends - starts).max()) + 1
    if width > _LINE_MAX + 1:
        return None
    table = _writer_form_table()
    cells = np.empty((width, starts.size), np.uint8)
    np.copyto(cells.T, sliding_window_view(data, width)[starts])
    state = np.full(starts.size, _START << 8, np.uint16)
    for column in cells:
        np.add(state, column, out=state)
        table.take(state, out=state, mode="clip")  # never clips: a state plus a byte is inside the table
    if (state != _ACCEPT << 8).any():
        return None
    text = data[starts[0]:]
    colons = np.flatnonzero(text[:ends[-1] - starts[0]] == ord(":")).reshape(-1, len(_RECORD_KEYS))
    marks = [*colons.T, ends - starts[0]]

    def slot(k):
        return marks[k] + _SLOT_STARTS[k], marks[k + 1] - _SLOT_ENDS[k]

    alpha, beta = (_slot_integers(text, *slot(k)) for k in (1, 2))
    a_code, b_code = (_SYMBOL_BYTE_CODES[text[marks[k] + _SLOT_STARTS[k]]] for k in (3, 4))
    if not full:
        return None, alpha, beta, a_code, b_code, None, None, None
    tca, tcb, tr = (_slot_floats(text, *slot(k)) for k in (5, 6, 7))
    return _slot_integers(text, *slot(0)), alpha, beta, a_code, b_code, tca, tcb, tr


def _slot_integers(padded: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Unsigned decimal values of the slots ``padded[first:stop]``, by Horner's rule."""
    length = stop - first
    value = np.zeros(first.size, np.int64)
    for d in range(int(length.max())):
        value = np.where(d < length, value * 10 + padded[first + d] - ord("0"), value)
    return value


def _slot_floats(padded: np.ndarray, first: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Float values of the slots ``padded[first:stop]``, through numpy's bytes cast.

    The cast rounds as ``float()`` does.  NUL bytes pad each slot, and the
    bytes dtype drops them.
    """
    length = stop - first
    offsets = np.arange(int(length.max()))
    cells = np.where(offsets < length[:, None], padded[first[:, None] + offsets], 0).astype(np.uint8)
    with np.errstate(all="ignore"):  # the cast may flag the overflow to inf that float() also gives
        return cells.view(f"S{offsets.size}").ravel().astype(np.float64)
