import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import bellbox as bb
from bellbox import numtext, runs
from bellbox.errors import BellBoxError, EmptySettingPair, MixedScenario, ScenarioMismatch, SchemaError, SizeLimit

S3 = bb.Scenario(3, 3)
S2 = bb.Scenario(2, 2)
GEOMETRY = bb.Geometry(400.0, 1e-6)
SRC = Path(__file__).resolve().parent.parent / "src"


class TestGeometry:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            bb.Geometry(0.0, 1e-6)
        with pytest.raises(ValueError):
            bb.Geometry(400.0, -1.0)

    @pytest.mark.parametrize("values", [(math.inf, 1e-6), (400.0, math.inf), (math.nan, 1e-6), (400.0, math.nan)])
    def test_finite_required(self, values):
        with pytest.raises(ValueError, match="must be finite and positive"):
            bb.Geometry(*values)

    def test_duration_above_the_least_normal_double(self, tmp_path):
        # The latest choice time, (u - 1) * T at the largest u below 1, is -2**-53 * T:
        # at T = 2**-1022 it rounds to -0.0, a choice at t=0 the readers refuse.
        latest = math.nextafter(1.0, 0.0) - 1.0
        assert latest * 2.0**-1022 == 0.0
        with pytest.raises(ValueError, match=r"T must exceed 2\.2250738585072014e-308, .* got 2\.2250738585072014e-308"):
            bb.Geometry(400.0, 2.0**-1022)
        g = bb.Geometry(400.0, math.nextafter(2.0**-1022, math.inf))
        assert latest * g.T < 0.0
        log = bb.simulate(bb.uniform_behavior(S2), 2000, 5, g)
        path = tmp_path / "runs.jsonl"
        bb.write_run_log(log, path)
        back = bb.read_run_log(path)
        for field in ("t_choice_a", "t_choice_b", "t_report"):
            np.testing.assert_array_equal(getattr(back, field), getattr(log, field))
        np.testing.assert_array_equal(bb.tally_run_log(path).counts, bb.tally(log).counts)


class TestLocalityAudit:
    def test_pass_case(self):
        audit = bb.locality_audit(bb.Geometry(400.0, 1e-6))
        assert audit.passed
        assert audit.margin_meters == pytest.approx(400.0 - 299.792458, abs=1e-9)

    def test_fail_case(self):
        audit = bb.locality_audit(bb.Geometry(200.0, 1e-6))
        assert not audit.passed
        assert audit.margin_meters < 0

    def test_boundary_fails(self):
        t = 1e-6
        audit = bb.locality_audit(bb.Geometry(t * 299792458.0, t))
        assert not audit.passed
        assert audit.margin_meters == 0.0


class TestSimulate:
    def test_zero_runs_rejected(self):
        with pytest.raises(ValueError):
            bb.simulate(bb.uniform_behavior(S3), 0, 1, GEOMETRY)

    def test_deterministic_behavior_fixed_outcomes(self):
        table = np.zeros(S2.shape)
        table[:, :, 0, 1] = 1.0
        behavior = bb.validate_behavior(S2, table)
        log = bb.simulate(behavior, 500, 3, GEOMETRY)
        assert np.all(log.a_index == 0)
        assert np.all(log.b_index == 1)
        for t_choice in (log.t_choice_a, log.t_choice_b):
            assert np.all((-GEOMETRY.T <= t_choice) & (t_choice < 0.0))
        assert np.all(log.t_report == GEOMETRY.T)

    def test_bit_for_bit_reproducible(self):
        b = bb.uniform_behavior(S3)
        first = bb.simulate(b, 4000, seed=99, g=GEOMETRY)
        second = bb.simulate(b, 4000, seed=99, g=GEOMETRY)
        for field in ("alpha", "beta", "a_index", "b_index", "t_choice_a", "t_choice_b"):
            np.testing.assert_array_equal(getattr(first, field), getattr(second, field))
        different = bb.simulate(b, 4000, seed=100, g=GEOMETRY)
        assert not np.array_equal(first.alpha, different.alpha)

    def test_uniform_cells_within_three_sigma(self):
        # Binomial statistics oracle: each of the 36 joint cells has
        # probability 1/36 under uniform settings and uniform outcomes.
        n = 10**6
        log = bb.simulate(bb.uniform_behavior(S3), n, seed=0, g=GEOMETRY)
        counts = bb.tally(log).counts
        p = 1.0 / 36.0
        sigma = math.sqrt(p * (1.0 - p) / n)
        assert np.abs(counts / n - p).max() <= 3.0 * sigma

    def test_distinct_streams_are_independent(self):
        # Merge two sub-streams of one seed and chi-square the joint cell
        # counts against the exact multinomial expectation.
        n = 50_000
        b = bb.uniform_behavior(S3)
        merged = sum(bb.tally(bb.simulate(b, n, 5, GEOMETRY, stream=s)).counts for s in (0, 1))
        expected = np.full(36, 2 * n / 36.0)
        stat = scipy.stats.chisquare(merged.ravel(), expected)
        assert stat.pvalue > 0.001

    def test_streams_differ(self):
        b = bb.uniform_behavior(S3)
        s0 = bb.simulate(b, 1000, 5, GEOMETRY, stream=0)
        s1 = bb.simulate(b, 1000, 5, GEOMETRY, stream=1)
        assert not np.array_equal(s0.alpha, s1.alpha)


def one_run_log(scenario, alpha, beta, a_index, b_index):
    columns = [np.array([v]) for v in (0, alpha, beta, a_index, b_index, -1e-7, -2e-7, 1e-6)]
    return bb.RunLog(scenario, *columns)


class TestTally:
    def test_single_record(self):
        t = bb.tally(one_run_log(S3, 1, 2, 0, 1))
        assert t.counts[1, 2, 0, 1] == 1
        assert t.counts.sum() == 1

    def test_mixed_scenario_rejected(self):
        counts = bb.tally(bb.simulate(bb.uniform_behavior(S3), 10, 1, GEOMETRY)).counts
        with pytest.raises(MixedScenario):
            bb.Tally(S2, counts)

    @pytest.mark.parametrize("counts", [np.full(S2.shape, -1), np.full(S2.shape, 1.0)], ids=["negative", "float"])
    def test_counts_must_be_nonnegative_integers(self, counts):
        with pytest.raises(MixedScenario, match="counts must be nonnegative integers"):
            bb.Tally(S2, counts)

    def test_record_outside_scenario_rejected(self):
        with pytest.raises(MixedScenario):
            bb.tally(one_run_log(S2, 2, 0, 0, 1))

    @pytest.mark.parametrize("record", [(0, 0, -1, 1), (0, 0, 5, 1), (0, 0, 0, 2), (2, 0, 0, 1), (0, -1, 0, 1)],
                             ids=["negative-a", "large-a", "large-b", "alpha", "negative-beta"])
    def test_writer_refuses_indices_outside_scenario(self, tmp_path, record):
        path = tmp_path / "runs.jsonl"
        with pytest.raises(MixedScenario, match="run log indices do not fit the scenario"):
            bb.write_run_log(one_run_log(S2, *record), path)
        assert not path.exists()

    @pytest.mark.parametrize("columns, message", [
        # Broadcast, a 1-entry b_index would be counted at b = 1 for all 5 records.
        ({"b_index": np.array([1])}, "one entry per record"),
        # Broadcast, a 1-entry time column would be written into every record.
        ({"t_choice_b": np.array([-1e-7])}, "one entry per record"),
        ({"t_report": np.array([1e-6])}, "one entry per record"),
        # A beta of 1.7 would be written as "beta":1, and its count raise numpy's TypeError.
        ({"beta": np.array([0, 1.7, 0, 1, 0])}, "integer dtype"),
    ], ids=["short-b", "short-tcb", "short-tr", "float-beta"])
    def test_malformed_columns_refused(self, tmp_path, columns, message):
        log = dataclasses.replace(bb.simulate(bb.uniform_behavior(S2), 5, 1, GEOMETRY), **columns)
        with pytest.raises(MixedScenario, match=message):
            bb.tally(log)
        path = tmp_path / "runs.jsonl"
        with pytest.raises(MixedScenario, match=message):
            bb.write_run_log(log, path)
        assert not path.exists()

    def test_totals_match_blocks(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S3), 999, 2, GEOMETRY))
        np.testing.assert_array_equal(t.totals, t.counts.sum(axis=(2, 3)))
        assert t.totals.sum() == 999


class TestEstimate:
    def test_pure_block(self):
        counts = np.zeros(S2.shape, dtype=np.int64)
        counts[:, :, 0, 0] = 10
        behavior, stderr = bb.estimate(bb.Tally(S2, counts))
        np.testing.assert_array_equal(behavior.p[0, 0], [[1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(stderr[0, 0], np.zeros((2, 2)))

    def test_half_half_block(self):
        counts = np.zeros(S2.shape, dtype=np.int64)
        counts[:, :, 0, 0] = 5
        counts[:, :, 0, 1] = 5
        behavior, stderr = bb.estimate(bb.Tally(S2, counts))
        assert behavior.p[0, 0, 0, 0] == 0.5
        # Wald: sqrt(0.5 * 0.5 / 10)
        assert stderr[0, 0, 0, 0] == pytest.approx(math.sqrt(0.025), abs=1e-15)
        assert stderr[0, 0, 0, 0] == pytest.approx(0.158, abs=1e-3)

    def test_empty_block_rejected(self):
        counts = np.zeros(S2.shape, dtype=np.int64)
        counts[0, 0, 0, 0] = 4
        with pytest.raises(EmptySettingPair) as info:
            bb.estimate(bb.Tally(S2, counts))
        assert (info.value.alpha, info.value.beta) == (0, 1)

    def test_consistency_over_seeds(self, chained_target):
        # estimate(tally(simulate(b))) converges: every cell within 5 sigma
        # at n = 1e6, across 20 seeds; zero-probability cells stay empty.
        n = 10**6
        for seed in range(20):
            t = bb.tally(bb.simulate(chained_target, n, seed, GEOMETRY))
            behavior, _ = bb.estimate(t)
            totals = t.totals[:, :, None, None].astype(float)
            sigma = np.sqrt(chained_target.p * (1.0 - chained_target.p) / totals)
            err = np.abs(behavior.p - chained_target.p)
            assert np.all(err[sigma == 0.0] == 0.0)
            assert np.all(err[sigma > 0.0] <= 5.0 * sigma[sigma > 0.0])


class TestFunctionalInterval:
    def test_all_zero_functional(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S3), 100, 1, GEOMETRY))
        f = bb.BellFunctional(S3, np.zeros(S3.shape), 0.0, bb.Direction.AT_LEAST)
        assert bb.functional_interval(t, f) == (0.0, 0.0)

    def test_uniform_behavior_wigner(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S3), 10**5, 13, GEOMETRY))
        value, sigma = bb.functional_interval(t, bb.wigner_literal(0))
        assert sigma > 0.0
        assert abs(value - 0.25) <= 5.0 * sigma

    def test_scenario_mismatch(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S2), 100, 1, GEOMETRY))
        with pytest.raises(ScenarioMismatch):
            bb.functional_interval(t, bb.wigner_literal(0))

    def test_deterministic_tally_zero_sigma(self):
        counts = np.zeros(S3.shape, dtype=np.int64)
        counts[:, :, 0, 1] = 50
        value, sigma = bb.functional_interval(bb.Tally(S3, counts), bb.wigner_literal(0))
        assert value == 1.0  # +1 +1 -1 cells all at p=1
        assert sigma == 0.0


class TestRandomnessAudit:
    def test_balanced_histogram(self):
        counts = np.full(S3.shape, 7, dtype=np.int64)
        audit = bb.randomness_audit(bb.Tally(S3, counts))
        assert audit.chi_square_uniformity == 0.0
        assert audit.chi_square_independence == 0.0
        assert audit.dof_uniformity == 8
        assert audit.dof_independence == 4

    def test_all_runs_on_one_pair(self):
        # Oracle: sum (obs - exp)^2 / exp with exp = 100/9 gives 800.
        counts = np.zeros(S3.shape, dtype=np.int64)
        counts[0, 0, 0, 0] = 100
        audit = bb.randomness_audit(bb.Tally(S3, counts))
        assert audit.chi_square_uniformity == pytest.approx(800.0, abs=1e-9)
        # The histogram equals the product of its own margins here.
        assert audit.chi_square_independence == pytest.approx(0.0, abs=1e-9)

    def test_empty_tally_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            bb.randomness_audit(bb.Tally(S3, np.zeros(S3.shape, dtype=np.int64)))

    def test_product_histogram_independent(self):
        row = np.array([10, 30, 60])
        col = np.array([20, 30, 50])
        counts = np.zeros(S3.shape, dtype=np.int64)
        counts[:, :, 0, 0] = row[:, None] * col[None, :]
        audit = bb.randomness_audit(bb.Tally(S3, counts))
        assert audit.chi_square_independence == pytest.approx(0.0, abs=1e-9)
        assert audit.chi_square_uniformity > 0.0

    def test_matches_scipy(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S3), 5000, 17, GEOMETRY))
        audit = bb.randomness_audit(t)
        reference = scipy.stats.chisquare(t.totals.ravel())
        assert audit.chi_square_uniformity == pytest.approx(reference.statistic, abs=1e-9)
        table = scipy.stats.chi2_contingency(t.totals, correction=False)
        assert audit.chi_square_independence == pytest.approx(table.statistic, abs=1e-9)
        assert audit.dof_independence == table.dof


class TestRunLogFiles:
    def test_round_trip(self, tmp_path, chained_target):
        log = bb.simulate(chained_target, 300, 21, GEOMETRY)
        path = tmp_path / "runs.jsonl"
        bb.write_run_log(log, path)
        back = bb.read_run_log(path)
        assert back.scenario == log.scenario
        for field in ("index", "alpha", "beta", "a_index", "b_index"):
            np.testing.assert_array_equal(getattr(back, field), getattr(log, field))
        np.testing.assert_allclose(back.t_choice_a, log.t_choice_a, rtol=0, atol=0)

    def test_ternary_alphabet_inferred(self, tmp_path):
        ternary = bb.apply_fair_sampling(bb.uniform_behavior(S2), 0.4, 0.4)
        log = bb.simulate(ternary, 500, 2, GEOMETRY)
        path = tmp_path / "runs.jsonl"
        bb.write_run_log(log, path)
        back = bb.read_run_log(path)
        assert back.scenario.outcomes_a is bb.Alphabet.PLUS_MINUS_NULL

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"i":0,"alpha":0,"beta":0,"a":"+","b":"-","tca":-1e-7,"tcb":-1e-7,"tr":1e-6,"x":1}\n')
        with pytest.raises(SchemaError):
            bb.read_run_log(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("")
        with pytest.raises(SchemaError):
            bb.read_run_log(path)

    def test_bad_symbol_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text('{"i":0,"alpha":0,"beta":0,"a":"x","b":"-","tca":-1e-7,"tcb":-1e-7,"tr":1e-6}\n')
        with pytest.raises(SchemaError):
            bb.read_run_log(path)


def _record_line(i=0, alpha=0, beta=0, a="+", b="-", tca=-1e-7, tcb=-2e-7, tr=1e-6) -> str:
    fields = {"i": i, "alpha": alpha, "beta": beta, "a": a, "b": b, "tca": tca, "tcb": tcb, "tr": tr}
    return json.dumps(fields, separators=(",", ":"))


def _reference_write_run_log(log: bb.RunLog, path) -> None:
    """The per-record json.dumps writer the chunked writer must match byte for byte."""
    sym_a = log.scenario.outcomes_a.symbols
    sym_b = log.scenario.outcomes_b.symbols
    with open(path, "w", encoding="utf-8") as handle:
        for i in range(len(log)):
            line = {
                "i": int(log.index[i]),
                "alpha": int(log.alpha[i]),
                "beta": int(log.beta[i]),
                "a": sym_a[int(log.a_index[i])],
                "b": sym_b[int(log.b_index[i])],
                "tca": float(log.t_choice_a[i]),
                "tcb": float(log.t_choice_b[i]),
                "tr": float(log.t_report[i]),
            }
            handle.write(json.dumps(line, separators=(",", ":")) + "\n")


def _awkward_times(log: bb.RunLog) -> bb.RunLog:
    """The log with floats whose shortest repr is long, tiny, signed or not finite."""
    awkward_choice = np.array([-5e-324, -1e-07, -0.9999999999999999, -1.0000000000000002e-300, -123456.789, -0.1])
    awkward_report = np.array([1e-06, 0.0, -0.0, 2.5, 1e-06, 1e16, 123456789012345.67, np.inf, np.nan])
    n = len(log)
    return bb.RunLog(
        log.scenario, log.index, log.alpha, log.beta, log.a_index, log.b_index,
        np.resize(awkward_choice, n),
        np.resize(awkward_choice[::-1], n),
        np.resize(awkward_report, n),
    )


class TestRunLogStreaming:
    @pytest.fixture()
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(runs, "_CHUNK_RECORDS", 3)
        _small_reads(monkeypatch)

    @pytest.mark.parametrize("ternary", [False, True])
    @pytest.mark.parametrize("chunk", [3, None])
    def test_writer_matches_per_record_json_dumps(self, tmp_path, monkeypatch, ternary, chunk):
        if chunk is not None:
            monkeypatch.setattr(runs, "_CHUNK_RECORDS", chunk)
        behavior = bb.uniform_behavior(S3)
        if ternary:
            behavior = bb.apply_fair_sampling(behavior, 0.6, 0.7)
        log = bb.simulate(behavior, 200, 31, GEOMETRY)
        for candidate in (log, _awkward_times(log)):
            bb.write_run_log(candidate, tmp_path / "chunked.jsonl")
            _reference_write_run_log(candidate, tmp_path / "reference.jsonl")
            assert (tmp_path / "chunked.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()

    def test_malformed_line_in_later_chunk_names_its_line(self, tmp_path, small_chunks):
        lines = [_record_line(i) for i in range(10)]
        lines.insert(2, "")
        lines[8] = lines[8][:-1]  # file line 9, in the third chunk
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SchemaError, match=rf"runs\.jsonl:9: not valid JSON"):
                reader(path)

    def test_first_faulty_line_named_when_a_chunk_has_two_faults(self, tmp_path):
        # A bad symbol on line 2 and a string alpha on line 4: the error names
        # line 2, though the type check of line 4 comes before the symbol check.
        lines = [_record_line(i) for i in range(5)]
        lines[1] = _record_line(1, a="x")
        lines[3] = _record_line(3, alpha="1")
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SchemaError, match=r"runs\.jsonl:2: unknown outcome symbols: 'x' is none of"):
                reader(path)

    def test_checks_within_a_record_run_in_order(self, tmp_path):
        # Each fault, in the order the checks run; with faults k onward in one
        # record, fault k is the one named.
        faults = [
            ("x", 1, "record fields must be"),
            ("i", 10**19, "malformed record value: Python int too large"),
            ("beta", "1", "malformed record value: beta '1' is not a JSON integer"),
            ("a", "x", "unknown outcome symbols"),
            ("alpha", -1, "negative setting index"),
            ("tca", 0.0, "input choices must end before t=0"),
            ("tr", -1e-9, "outputs cannot be reported before t=0"),
        ]
        path = tmp_path / "runs.jsonl"
        for k, (_, _, message) in enumerate(faults):
            record = json.loads(_record_line(1))
            record.update((key, value) for key, value, _ in faults[k:])
            path.write_text(_record_line(0) + "\n" + json.dumps(record) + "\n")
            for reader in (bb.read_run_log, bb.tally_run_log):
                with pytest.raises(SchemaError, match=rf"runs\.jsonl:2: {message}"):
                    reader(path)

    def test_record_split_across_lines_rejected(self, tmp_path):
        # Joined, these two lines would decode as two whole records.
        first, second = _record_line(0), _record_line(1)
        cut = second.index('"beta"')
        path = tmp_path / "runs.jsonl"
        path.write_text(f"{first},{second[:cut - 1]}\n{second[cut:]}\n")
        with pytest.raises(SchemaError, match=r"runs\.jsonl:1: not valid JSON"):
            bb.read_run_log(path)

    def test_two_records_on_one_line_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(f"{_record_line(0)}\n{_record_line(1)},{_record_line(2)}\n{_record_line(3)}\n")
        with pytest.raises(SchemaError, match=r"runs\.jsonl:2: not valid JSON"):
            bb.read_run_log(path)

    def test_blank_lines_skipped(self, tmp_path, small_chunks):
        log = bb.simulate(bb.uniform_behavior(S3), 20, 5, GEOMETRY)
        dense = tmp_path / "dense.jsonl"
        bb.write_run_log(log, dense)
        lines = dense.read_text().splitlines()
        sparse = tmp_path / "sparse.jsonl"
        sparse.write_text("\n  \n" + "\n\n".join(lines) + "\n\t\n\n")
        back = bb.read_run_log(sparse)
        for field in ("index", "alpha", "beta", "a_index", "b_index", "t_choice_a", "t_choice_b", "t_report"):
            np.testing.assert_array_equal(getattr(back, field), getattr(log, field))
        np.testing.assert_array_equal(bb.tally_run_log(sparse).counts, bb.tally(log).counts)

    def test_late_top_setting_and_null_symbol_infer_whole_file_scenario(self, tmp_path, monkeypatch):
        lines = [_record_line(i, alpha=i % 2, beta=i % 2) for i in range(9)]
        lines.append(_record_line(9, alpha=3, beta=1, a="0"))
        lines.append(_record_line(10, alpha=0, beta=4, b="0"))
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        whole = bb.read_run_log(path).scenario
        assert whole == bb.Scenario(4, 5, bb.Alphabet.PLUS_MINUS_NULL, bb.Alphabet.PLUS_MINUS_NULL)
        monkeypatch.setattr(runs, "_CHUNK_RECORDS", 3)
        _small_reads(monkeypatch)
        assert bb.read_run_log(path).scenario == whole
        assert bb.tally_run_log(path).scenario == whole

    @pytest.mark.parametrize("ternary", [False, True])
    def test_streamed_tally_equals_tally_of_read(self, tmp_path, small_chunks, ternary):
        behavior = bb.uniform_behavior(bb.Scenario(3, 2))
        if ternary:
            behavior = bb.apply_fair_sampling(behavior, 0.5, 0.9)
        path = tmp_path / "runs.jsonl"
        bb.write_run_log(bb.simulate(behavior, 301, 17, GEOMETRY), path)
        streamed, whole = bb.tally_run_log(path), bb.tally(bb.read_run_log(path))
        assert streamed.scenario == whole.scenario
        np.testing.assert_array_equal(streamed.counts, whole.counts)

    @pytest.mark.parametrize("text", ["", "\n\n  \n\n\n"])
    def test_empty_file_rejected(self, tmp_path, small_chunks, text):
        path = tmp_path / "runs.jsonl"
        path.write_text(text)
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SchemaError, match="no records"):
                reader(path)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"tca": 0.0}, "choices must end before"),
            ({"tcb": 2e-7}, "choices must end before"),
            ({"tca": float("nan")}, "choices must end before"),
            ({"tr": -1e-9}, "reported before"),
        ],
    )
    def test_time_invariants_enforced(self, tmp_path, small_chunks, fields, message):
        lines = [_record_line(i) for i in range(7)]
        lines[5] = _record_line(5, **fields)
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SchemaError, match=rf"runs\.jsonl:6: .*{message}"):
                reader(path)

    def test_setting_pair_cap(self, tmp_path, small_chunks):
        # Every setting pair of a log costs a block of the count array, so the
        # grid is checked before the array grows, across chunks too.
        path = tmp_path / "runs.jsonl"
        lines = [_record_line(i) for i in range(4)]
        lines[1] = _record_line(1, alpha=255)
        lines[3] = _record_line(3, beta=255)
        path.write_text("\n".join(lines) + "\n")
        assert bb.read_run_log(path).scenario.shape[:2] == (256, 256)
        assert bb.tally_run_log(path).counts.shape[:2] == (256, 256)
        lines[3] = _record_line(3, beta=256)
        path.write_text("\n".join(lines) + "\n")
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SizeLimit, match=r"runs\.jsonl:4: 256 x 257 settings exceed the cap of 65536"):
                reader(path)

    @pytest.mark.parametrize("malformed", [6, 20_001])
    @pytest.mark.parametrize("small", [False, True])
    def test_first_fault_wins_over_a_later_malformed_line(self, tmp_path, monkeypatch, malformed, small):
        # Line 1 passes the setting-pair cap and a later line is malformed.  The
        # cap is checked record by record in file order, so both readers raise
        # SizeLimit for line 1 wherever the groups of lines fall, naming the
        # counts at line 1, not those after line 3 in the same group.
        if small:
            _small_reads(monkeypatch)
        lines = [_record_line(k) for k in range(30_000)]
        lines[0] = _record_line(0, alpha=300, beta=300)
        lines[2] = _record_line(2, alpha=400)
        lines[malformed - 1] = _record_line(malformed - 1, a="x")
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join(lines) + "\n")
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SizeLimit, match=r"runs\.jsonl:1: 301 x 301 settings exceed the cap of 65536"):
                reader(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"i":0,"alpha":0,"beta":0,"a":"+","b":"-","tca":-1e-7,"tcb":-1e-7}', r":2: record fields"),
            ('[0,0,0,"+","-",-1e-7,-1e-7,1e-6]', r":2: record fields"),
            (_record_line(1, alpha=None), "malformed record value"),
            (_record_line(1, beta=1e300), "malformed record value"),
            (_record_line(1, tr=[1e-6]), "malformed record value"),
            (_record_line(1, alpha=-1), r":2: negative setting index"),
            (_record_line(1, b=["-"]), "unknown outcome symbols"),
            (_record_line(1, alpha=1.5), r":2: malformed record value: alpha 1\.5 is not a JSON integer"),
            (_record_line(1, alpha="0"), r":2: malformed record value: alpha '0' is not a JSON integer"),
            (_record_line(1, beta=True), r":2: malformed record value: beta True is not a JSON integer"),
            (_record_line(1, tca="-1e-7"), r":2: malformed record value: tca '-1e-7' is not a JSON number"),
            (_record_line(1, tr=False), r":2: malformed record value: tr False is not a JSON number"),
            (_record_line(1, a=0), r":2: unknown outcome symbols: 0 is none of"),
        ],
    )
    def test_malformed_records_rejected(self, tmp_path, line, message):
        path = tmp_path / "runs.jsonl"
        path.write_text(_record_line(0) + "\n" + line + "\n")
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SchemaError, match=message):
                reader(path)


def _outcome(path) -> list:
    """What ``tally_run_log`` and ``read_run_log`` make of a log: every bit of their
    results, or the type and message of the error each raises."""
    outcome = []
    for reader in (bb.tally_run_log, bb.read_run_log):
        try:
            result = reader(path)
        except BellBoxError as exc:
            outcome.append((type(exc), str(exc)))
            continue
        arrays = [result.counts] if isinstance(result, bb.Tally) else [
            getattr(result, field)
            for field in ("index", "alpha", "beta", "a_index", "b_index", "t_choice_a", "t_choice_b", "t_report")
        ]
        outcome.append((result.scenario, [(array.dtype.str, array.shape, array.tobytes()) for array in arrays]))
    return outcome


def _json_only(monkeypatch) -> None:
    """Make the writer-form recognizer decline every group of lines, so only the json path reads."""
    monkeypatch.setattr(runs, "_writer_form_columns", lambda data, starts, ends, full: None)


def _small_reads(monkeypatch, block: int = 64, lines: int = 3) -> None:
    """Make the reader read ``block`` bytes at a time (below one record) and walk ``lines`` lines at a time."""
    monkeypatch.setattr(runs, "_READ_BYTES", block)
    monkeypatch.setattr(runs, "_CHUNK_RECORDS", lines)


def _no_json_columns(*args):
    raise AssertionError("a group of lines took the json path")


def _writer_form(text: str, full: bool = True):
    """What ``_writer_form_columns`` makes of ``text``, whole lines, as the reader hands them over."""
    lines = text.encode()
    data = np.frombuffer(lines + bytes(runs._LINE_MAX + 1), np.uint8)
    ends = np.flatnonzero(data[:len(lines)] == ord("\n"))
    return runs._writer_form_columns(data, np.concatenate(([0], ends[:-1] + 1)), ends, full)


# Writer-form lines: binary and ternary symbols, multi-digit indices, and
# short and long times, with and without an exponent.
_CANONICAL_LINES = [
    _record_line(0, 0, 1, "+", "-", -1.799250389652762e-08, -9.946706456264212e-07, 1e-06),
    _record_line(123456, 12, 305, "0", "0", -0.5, -1e-05, 2.5),
    _record_line(42, 7, 0, "-", "0", -123456.789, -2.5e+16, 0.0),
]
_MUTATION_BYTES = '{}":,.-+019eEx\t'


def _long_line(length: int) -> str:
    """A writer-form record of ``length`` bytes: zeros pad the choice time's fraction."""
    line = _record_line(1, tca=-0.1)
    return line.replace("-0.1", "-0.1" + "0" * (length - len(line)))


def _mutants(line: str) -> set[str]:
    """Every single-byte deletion, duplication and substitution from ``_MUTATION_BYTES``."""
    found = set()
    for k, ch in enumerate(line):
        found.add(line[:k] + line[k + 1:])
        found.add(line[:k] + ch + line[k:])
        found.update(line[:k] + sub + line[k + 1:] for sub in _MUTATION_BYTES)
    found.discard(line)
    return found


class TestWriterForm:
    """The vectorized reader of writer-form lines gives what the json path gives."""

    @pytest.mark.parametrize("line", _CANONICAL_LINES)
    def test_canonical_lines_take_the_vectorized_path(self, tmp_path, monkeypatch, line):
        assert _writer_form(line + "\n") is not None
        path = tmp_path / "runs.jsonl"
        path.write_text(_record_line(0) + "\n" + line + "\n")
        fast = _outcome(path)
        _json_only(monkeypatch)
        assert fast == _outcome(path)
        assert all(not isinstance(result[0], type) for result in fast)

    @pytest.mark.parametrize("line", _CANONICAL_LINES)
    def test_mutants_read_as_json_reads_them(self, tmp_path, monkeypatch, line):
        # Whether or not the recognizer accepts a mutant, both readers must give
        # what the json path alone gives: the same bits, or the same error with
        # the same line number.
        path = tmp_path / "runs.jsonl"
        mutants = sorted(_mutants(line))
        fast = []
        for mutant in mutants:
            path.write_text(_record_line(0) + "\n" + mutant + "\n")
            fast.append(_outcome(path))
        accepted = sum(_writer_form(mutant + "\n") is not None for mutant in mutants)
        assert accepted > 10  # many mutants stay in writer form, so both sides are exercised
        _json_only(monkeypatch)
        for mutant, expected in zip(mutants, fast):
            path.write_text(_record_line(0) + "\n" + mutant + "\n")
            assert _outcome(path) == expected, mutant

    def test_negative_index_takes_the_json_path(self, tmp_path, monkeypatch):
        # The automaton reads indices unsigned.  A negative index, which only a
        # hand-built log holds, is declined, and both readers read it as the json
        # path alone reads it.
        line = _record_line(-42, 7, 0, "-", "0", -123456.789, -2.5e+16, 0.0)
        assert _writer_form(line + "\n") is None
        path = tmp_path / "runs.jsonl"
        path.write_text(_record_line(0) + "\n" + line + "\n")
        read = _outcome(path)
        assert all(not isinstance(result[0], type) for result in read)
        assert bb.read_run_log(path).index.tolist() == [0, -42]
        _json_only(monkeypatch)
        assert _outcome(path) == read

    @pytest.mark.parametrize(
        "text, expected",
        [
            (_record_line(1, tca=-1e-308).replace("-1e-308", "-1e-400"), ":2: input choices must end before"),
            (_record_line(1, tca=-1.0).replace("-1.0", "-0.0"), ":2: input choices must end before"),
            (_record_line(1, tcb=-1.0).replace("-1.0", "-0e-5"), ":2: input choices must end before"),
            (_record_line(1, tr=-0.0), None),
            (_record_line(1, tr=1.0).replace("1.0", "1e400"), None),
            (_record_line(1, tca=-1.0).replace("-1.0", "-162016908386501861442703161748.7e300"), None),
            (_record_line(10**18), None),
            (_record_line(10**19 - 1), ":2: malformed record value"),
            (_record_line(1, alpha=10**19 - 1), ":2: malformed record value"),
            (_record_line(1, tr=10**400), ":2: malformed record value"),
            (_record_line(1, alpha=1).replace('"alpha":1', '"alpha":01'), ":2: not valid JSON"),
            (_record_line(1).replace('"a":"+"', r'"a":"\u002b"'), None),
            (_record_line(1).replace(',"beta"', ',\t"beta"'), None),
            (_record_line(1, tca=-0.1).replace("-0.1", "-0." + "0" * 200 + "1"), None),
            (_long_line(300), None),
        ],
    )
    def test_edge_tokens(self, tmp_path, monkeypatch, text, expected):
        path = tmp_path / "runs.jsonl"
        path.write_text(_record_line(0) + "\n" + text + "\n")
        fast = _outcome(path)
        if expected is None:
            assert all(not isinstance(result[0], type) for result in fast)
        else:
            assert all(kind is SchemaError and message.startswith(f"{path}{expected}") for kind, message in fast)
        _json_only(monkeypatch)
        assert _outcome(path) == fast

    def test_edge_values(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("\n".join([
            _record_line(0, tr=-0.0),
            _record_line(1, tr=1.0).replace("1.0", "1e400"),
            _record_line(2, a="-").replace('"a":"-"', r'"a":"\u002b"'),
            _record_line(3, tca=-0.1).replace("-0.1", "-0." + "0" * 200 + "1"),
        ]) + "\n")
        log = bb.read_run_log(path)
        assert math.copysign(1.0, log.t_report[0]) == -1.0 and log.t_report[0] == 0.0
        assert log.t_report[1] == math.inf
        assert log.a_index[2] == 0
        assert log.t_choice_a[3] == float("-0." + "0" * 200 + "1")

    @pytest.mark.parametrize("ending", ["\r\n", "\r", "no final newline"])
    def test_line_endings(self, tmp_path, ending, monkeypatch):
        lines = [_record_line(i, alpha=i % 3, b="0") for i in range(5)]
        path = tmp_path / "runs.jsonl"
        if ending == "no final newline":
            path.write_bytes("\n".join(lines).encode())
        else:
            path.write_bytes((ending.join(lines) + ending).encode())
        reference = tmp_path / "reference.jsonl"
        reference.write_text("\n".join(lines) + "\n")
        assert _writer_form("".join(line + "\n" for line in lines)) is not None
        with monkeypatch.context() as patched:  # the file itself is read without the json path
            patched.setattr(runs, "_json_columns", _no_json_columns)
            assert _outcome(path) == _outcome(reference)
        _json_only(monkeypatch)
        assert _outcome(path) == _outcome(reference)

    def test_long_line_declined(self):
        # A line longer than _LINE_MAX is left to the json path, however well formed.
        assert _writer_form(_long_line(runs._LINE_MAX) + "\n") is not None
        assert _writer_form(_long_line(runs._LINE_MAX + 1) + "\n") is None

    @pytest.mark.parametrize("ternary", [False, True])
    def test_simulated_logs_read_bit_for_bit(self, tmp_path, monkeypatch, ternary):
        monkeypatch.setattr(runs, "_CHUNK_RECORDS", 64)
        _small_reads(monkeypatch, block=4096, lines=64)
        behavior = bb.uniform_behavior(bb.Scenario(4, 3))
        if ternary:
            behavior = bb.apply_fair_sampling(behavior, 0.7, 0.8)
        log = bb.simulate(behavior, 1000, 3, GEOMETRY)
        path = tmp_path / "runs.jsonl"
        for candidate in (log, _awkward_times(log)):
            bb.write_run_log(candidate, path)
            fast = _outcome(path)
            with monkeypatch.context() as patched:
                _json_only(patched)
                assert _outcome(path) == fast
        bb.write_run_log(log, path)
        back = bb.read_run_log(path)
        for field in ("index", "alpha", "beta", "a_index", "b_index", "t_choice_a", "t_choice_b", "t_report"):
            np.testing.assert_array_equal(getattr(back, field), getattr(log, field))


def _named_outcome(path) -> list:
    """``_outcome`` with the log's path in error messages replaced by ``<log>``."""
    return [(kind, detail.replace(str(path), "<log>")) if isinstance(kind, type) else (kind, detail)
            for kind, detail in _outcome(path)]


def _text_mode_copy(path, copy) -> None:
    """Write to ``copy`` the lines text mode reads from ``path``, each ending in one newline."""
    with open(path, encoding="utf-8") as handle:
        lines = [line.removesuffix("\n") + "\n" for line in handle]
    copy.write_text("".join(lines), encoding="utf-8")


_EDGE_RECORDS = [_record_line(i, alpha=i % 3, beta=i % 2, a="+-0"[i % 3], b="-+"[i % 2], tca=-(i + 1) * 1e-7)
                 for i in range(7)]
# Logs whose lines straddle the edges of small reads, in every line-end form text mode reads.
_EDGE_LOGS = {
    "newlines": "\n".join(_EDGE_RECORDS) + "\n",
    "crlf": "\r\n".join(_EDGE_RECORDS) + "\r\n",
    "cr only": "\r".join(_EDGE_RECORDS) + "\r",
    "no final newline": "\n".join(_EDGE_RECORDS),
    "mixed, blank lines": (_EDGE_RECORDS[0] + "\r\n" + _EDGE_RECORDS[1] + "\n\r\n" + _EDGE_RECORDS[2] + "\r"
                           + _EDGE_RECORDS[3] + "\r\n\r \n\t\r" + "\n".join(_EDGE_RECORDS[4:]) + "\r"),
    "long line": "\n".join([*_EDGE_RECORDS[:3], _long_line(600), *_EDGE_RECORDS[3:]]) + "\n",
    "crlf, fault on line 6": "\r\n".join([*_EDGE_RECORDS[:5], _EDGE_RECORDS[5][:-1], *_EDGE_RECORDS[6:]]) + "\r\n",
    "utf-8 symbol": "\n".join([*_EDGE_RECORDS[:4], _record_line(4, a="\u00e9")]) + "\n",
    "utf-8 bom": "\ufeff" + "\n".join(_EDGE_RECORDS) + "\n",
}
# Read sizes below one record; a buffer doubles until a line fits, so each ends at a different size.
_EDGE_BLOCKS = [1, 7, 50, 97, len(_EDGE_RECORDS[0]) + 1, 2 * len(_EDGE_RECORDS[0]) + 3, 333]


class TestBlockEdges:
    """Reads of a few bytes give what one read of the whole file gives, on either path."""

    @pytest.mark.parametrize("block", _EDGE_BLOCKS)
    @pytest.mark.parametrize("name", _EDGE_LOGS)
    def test_small_reads_read_as_text_mode_does(self, tmp_path, monkeypatch, name, block):
        path, reference = tmp_path / "runs.jsonl", tmp_path / "reference.jsonl"
        path.write_bytes(_EDGE_LOGS[name].encode())
        _text_mode_copy(path, reference)
        expected = _named_outcome(reference)
        _small_reads(monkeypatch, block=block, lines=2)
        assert _named_outcome(path) == expected
        _json_only(monkeypatch)
        assert _named_outcome(path) == expected

    def test_crlf_split_across_reads(self, tmp_path, monkeypatch):
        # The first read ends between a record's \r and its \n.
        path = tmp_path / "runs.jsonl"
        path.write_bytes(_EDGE_LOGS["crlf"].encode())
        reads, unify = [], runs._unify_line_ends
        _small_reads(monkeypatch, block=len(_EDGE_RECORDS[0]) + 1)
        monkeypatch.setattr(runs, "_unify_line_ends", lambda *args: reads.append(args) or unify(*args))
        fast = _named_outcome(path)
        assert reads[0][1:] == (len(_EDGE_RECORDS[0]) + 1, False)  # (data, filled, last): kept the \r
        monkeypatch.undo()
        assert fast == _named_outcome(path)

    def test_bom_is_not_stripped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_bytes(_EDGE_LOGS["utf-8 bom"].encode())
        message = f"{path}:1: not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)"
        assert all(kind is SchemaError and detail.startswith(message) for kind, detail in _outcome(path))

    @pytest.mark.parametrize("block", [None, *_EDGE_BLOCKS])
    @pytest.mark.parametrize("ending", ["\n", "\r\n"])
    def test_non_utf8_byte_names_its_line(self, tmp_path, monkeypatch, ending, block):
        lines = [line.encode() for line in _EDGE_RECORDS]
        lines[2] = lines[2][:40] + b"\xff" + lines[2][40:]
        path = tmp_path / "runs.jsonl"
        path.write_bytes(ending.encode().join(lines) + ending.encode())
        if block is not None:
            _small_reads(monkeypatch, block=block, lines=2)
        expected = [(SchemaError, f"{path}:3: not valid UTF-8: invalid start byte at byte 41")] * 2
        assert _outcome(path) == expected
        _json_only(monkeypatch)
        assert _outcome(path) == expected

    def test_earlier_fault_named_before_a_non_utf8_byte(self, tmp_path):
        lines = [line.encode() for line in _EDGE_RECORDS]
        lines[1] = lines[1][:-1]
        lines[2] = b"\xff" + lines[2]
        path = tmp_path / "runs.jsonl"
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert all(kind is SchemaError and detail.startswith(f"{path}:2: not valid JSON")
                   for kind, detail in _outcome(path))


# What a read holds at most, by the bound ``runs._parse_run_log`` states.
_READ_PEAK_BOUND = 12 * 2**20


def _tally_peak(path) -> int:
    """Peak traced memory of ``tally_run_log(path)``, in bytes."""
    runs._writer_form_table()  # built once per process, outside the measure
    tracemalloc.start()
    try:
        bb.tally_run_log(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReadMemory:
    @pytest.mark.parametrize("where", [0, 1 << 19, (1 << 20) - 300])
    def test_blank_lines_and_one_long_line(self, tmp_path, where):
        # A walk of a whole block would gather 2**20 lines of 257 bytes; groups of
        # _CHUNK_RECORDS lines keep the gathered copy at 1.05 MB.
        blank = b"\n" * (1 << 20)
        path = tmp_path / "runs.jsonl"
        path.write_bytes(blank[:where] + (_long_line(runs._LINE_MAX) + "\n").encode() + blank[where:])
        assert _tally_peak(path) < _READ_PEAK_BOUND

    def test_peak_does_not_grow_with_the_log(self, tmp_path):
        peaks = []
        for n in (20_000, 200_000):
            path = tmp_path / f"runs{n}.jsonl"
            bb.write_run_log(bb.simulate(bb.uniform_behavior(S3), n, 2, GEOMETRY), path)
            peaks.append(_tally_peak(path))
        assert peaks[1] <= 1.05 * peaks[0] + 2**16
        assert peaks[1] < _READ_PEAK_BOUND


def _one_shot_simulate(b: bb.Behavior, n_runs: int, seed: int, g: bb.Geometry, stream: int = 0) -> bb.RunLog:
    """Each whole column drawn at once from its own sub-stream, with the (n, ka * kb) comparison made at once."""
    sa, sb, ka, kb = b.scenario.shape
    alphas, betas, outcomes, choices_a, choices_b = (
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, k))) for k in range(5))
    alpha = alphas.integers(0, sa, size=n_runs)
    beta = betas.integers(0, sb, size=n_runs)
    u = outcomes.random(n_runs)
    tca = (choices_a.random(n_runs) - 1.0) * g.T
    tcb = (choices_b.random(n_runs) - 1.0) * g.T
    cum = b.p.reshape(sa, sb, ka * kb).cumsum(axis=-1)
    cum[:, :, -1] = 1.0
    flat = (u[:, None] >= cum[alpha, beta]).sum(axis=1)
    return bb.RunLog(b.scenario, np.arange(n_runs), alpha, beta, flat // kb, flat % kb, tca, tcb,
                     np.full(n_runs, float(g.T)))


def _chunk_behaviors() -> dict[str, bb.Behavior]:
    plan = bb.MeasurementPlan.from_degrees([0, 50, 100], [20, 70])
    singlet = bb.behavior_from_state(bb.SINGLET, plan)
    return {
        "binary-3x2": singlet,
        "three-symbol-3x2": bb.apply_fair_sampling(singlet, 0.6, 0.7),
        "binary-300x2": bb.uniform_behavior(bb.Scenario(300, 2)),
        "three-symbol-2x300": bb.uniform_behavior(bb.Scenario(2, 300, bb.Alphabet.PLUS_MINUS,
                                                              bb.Alphabet.PLUS_MINUS_NULL)),
    }


_CHUNK_BEHAVIORS = _chunk_behaviors()
_SMALL_CHUNK = 7
_LOG_FIELDS = ("index", "alpha", "beta", "a_index", "b_index", "t_choice_a", "t_choice_b", "t_report")


def _assert_same_log(log: bb.RunLog, reference: bb.RunLog) -> None:
    assert log.scenario == reference.scenario
    for field in _LOG_FIELDS:
        assert getattr(log, field).dtype == getattr(reference, field).dtype, field
        np.testing.assert_array_equal(getattr(log, field), getattr(reference, field), err_msg=field)


class TestChunkedDraw:
    @pytest.fixture()
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(runs, "_CHUNK_RECORDS", _SMALL_CHUNK)

    @pytest.mark.parametrize("stream", [0, 3])
    @pytest.mark.parametrize("name", list(_CHUNK_BEHAVIORS))
    @pytest.mark.parametrize("n", [1, _SMALL_CHUNK - 1, _SMALL_CHUNK, _SMALL_CHUNK + 1, 3 * _SMALL_CHUNK + 5])
    def test_matches_the_one_shot_draw(self, small_chunks, n, name, stream):
        behavior = _CHUNK_BEHAVIORS[name]
        _assert_same_log(bb.simulate(behavior, n, 8, GEOMETRY, stream=stream),
                         _one_shot_simulate(behavior, n, 8, GEOMETRY, stream=stream))

    def test_chunks_are_the_log_in_order(self, small_chunks):
        behavior = _CHUNK_BEHAVIORS["three-symbol-3x2"]
        chunks = list(runs.simulate_chunks(behavior, 3 * _SMALL_CHUNK + 5, 8, GEOMETRY, stream=3))
        assert [chunk[0].size for chunk in chunks] == [_SMALL_CHUNK] * 3 + [5]
        log = bb.simulate(behavior, 3 * _SMALL_CHUNK + 5, 8, GEOMETRY, stream=3)
        for column, field in zip(zip(*chunks), _LOG_FIELDS):
            np.testing.assert_array_equal(np.concatenate(column), getattr(log, field), err_msg=field)

    def test_matches_the_one_shot_draw_at_the_module_chunk(self):
        behavior = _CHUNK_BEHAVIORS["three-symbol-3x2"]
        for n in (runs._CHUNK_RECORDS + 1, 3 * runs._CHUNK_RECORDS + 5):
            _assert_same_log(bb.simulate(behavior, n, 5, GEOMETRY, stream=3),
                             _one_shot_simulate(behavior, n, 5, GEOMETRY, stream=3))

    @pytest.mark.parametrize("stream", [0, 3])
    @pytest.mark.parametrize("n", [1, runs._CHUNK_RECORDS - 1, runs._CHUNK_RECORDS, runs._CHUNK_RECORDS + 1, 10_000])
    def test_a_longer_run_extends_a_shorter_one(self, n, stream):
        behavior = _CHUNK_BEHAVIORS["three-symbol-3x2"]
        longer = bb.simulate(behavior, 20_000, 5, GEOMETRY, stream=stream)
        prefix = bb.RunLog(longer.scenario, *(getattr(longer, field)[:n] for field in _LOG_FIELDS))
        _assert_same_log(bb.simulate(behavior, n, 5, GEOMETRY, stream=stream), prefix)

    def test_bad_run_count_raised_before_any_chunk(self):
        with pytest.raises(ValueError, match="n_runs must be >= 1"):
            runs.simulate_chunks(bb.uniform_behavior(S3), 0, 1, GEOMETRY)

    def test_seeded_log_bytes_pinned(self, tmp_path):
        # The sha256 of this log as the one-shot draw and writer wrote it.
        plan = bb.MeasurementPlan.from_degrees([120.0, 0.0, 60.0], [120.0, 0.0, 60.0])
        behavior = bb.apply_fair_sampling(bb.behavior_from_state(bb.SINGLET, plan), 0.8, 0.9)
        path = tmp_path / "runs.jsonl"
        bb.write_run_log(bb.simulate(behavior, 100_000, 7919, GEOMETRY, stream=3), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "23ac57d11842fee36b0619d90362ec897602ba8d145b3352a12dbf1617b3b7e9"


# Linux carries a process's peak RSS across fork and exec, so a child's ru_maxrss is at least the
# peak of the process that spawned it: from pytest it would read pytest's own.  A bare interpreter,
# far smaller than the child, spawns it and prints its exit code and ru_maxrss (KiB) from wait4.
_CHILD_PEAK = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _simulate_child_peak_mb(tmp_path, n_runs: int) -> float:
    """Peak RSS, in MB, of a ``bellbox simulate`` child writing ``n_runs`` records to /dev/null."""
    behavior = tmp_path / "behavior.json"
    plan = bb.MeasurementPlan.from_degrees([120.0, 0.0, 60.0], [120.0, 0.0, 60.0])
    behavior.write_text(json.dumps(bb.behavior_to_json_dict(bb.behavior_from_state(bb.SINGLET, plan))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "bellbox.cli", "simulate", "--behavior", str(behavior), "--runs", str(n_runs),
            "--seed", "7919", "--geometry", "400,1e-6", "--out", os.devnull]
    report = subprocess.run([sys.executable, "-c", _CHILD_PEAK, *argv], env=env, capture_output=True, text=True,
                            check=True)
    code, peak_kib = map(int, report.stdout.split())
    assert code == 0
    return peak_kib / 1024.0


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4 for a child's peak RSS")
class TestSimulateMemory:
    def test_cli_peak_does_not_grow_with_the_log(self, tmp_path):
        small, large = (_simulate_child_peak_mb(tmp_path, n) for n in (200_000, 2_000_000))
        assert large - small <= 2.0, f"peak RSS {small:.1f} MB at 2e5 runs, {large:.1f} MB at 2e6"


def _word_texts(words: np.ndarray) -> list[str]:
    """The texts held by a formatter's (words, n) uint64 words, NUL bytes dropped."""
    rows = np.ascontiguousarray(words.T).astype("<u8").view(np.uint8)
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


def _double_corpus() -> np.ndarray:
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    decade_edges = np.array([1e-5, 1e-4, 1e15, 9.999999999999999e15, 1e16, 1.7976931348623157e308])
    return np.concatenate([
        np.random.default_rng(11).integers(0, 2**64, 10**5, dtype=np.uint64, endpoint=False).view(np.float64),
        powers_of_two, np.nextafter(powers_of_two, 0.0), np.nextafter(powers_of_two, np.inf),
        np.arange(1, 1024, dtype=np.uint64).view(np.float64),  # subnormals
        float(2**53) + np.arange(-8.0, 9.0),
        decade_edges, -decade_edges, np.nextafter(decade_edges, 0.0), np.nextafter(decade_edges[:-1], np.inf),
        [0.0, -0.0, np.nan, np.inf, -np.inf],
    ])


_INT64_EXTREMES = np.array(
    [-(2**63), -(2**63) + 1, 2**63 - 1, 2**63 - 2, 0, 1, -1, 9999, 10000, -9999, -10000, 10**18, -(10**18)], np.int64)


class TestNumberText:
    def test_doubles_as_json_dumps_writes_them(self):
        values = _double_corpus()
        assert _word_texts(numtext.float_words(values)) == [json.dumps(v) for v in values.tolist()]

    def test_integers_as_str_writes_them(self):
        values = np.concatenate((_INT64_EXTREMES, np.random.default_rng(12).integers(-(2**63), 2**63 - 1, 1000)))
        assert _word_texts(numtext.integer_words(values)) == [str(v) for v in values.tolist()]
        assert _word_texts(numtext.integer_words(np.zeros(3, np.int64))) == ["0"] * 3

    def test_integers_of_every_length_and_sign_in_one_chunk(self):
        # One chunk holds 1- to 19-digit values of both signs, so each value's
        # digits and sign share words laid out for the longest.
        magnitudes = [10**n for n in range(19)] + [10**n - 1 for n in range(1, 19)] + [2**63 - 1]
        values = np.array(magnitudes + [-m for m in magnitudes], np.int64)
        np.random.default_rng(3).shuffle(values)
        assert _word_texts(numtext.integer_words(values)) == [str(v) for v in values.tolist()]

    @pytest.mark.parametrize("chunk", [3, None])
    def test_writer_matches_reference_on_extreme_numbers(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(runs, "_CHUNK_RECORDS", chunk)
        times = _double_corpus()[::97]
        n = times.size
        log = bb.simulate(bb.apply_fair_sampling(bb.uniform_behavior(S3), 0.6, 0.7), n, 13, GEOMETRY)
        log = bb.RunLog(
            log.scenario, np.resize(_INT64_EXTREMES, n), log.alpha, log.beta, log.a_index, log.b_index,
            times, -times, np.roll(times, 1),
        )
        bb.write_run_log(log, tmp_path / "chunked.jsonl")
        _reference_write_run_log(log, tmp_path / "reference.jsonl")
        assert (tmp_path / "chunked.jsonl").read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
