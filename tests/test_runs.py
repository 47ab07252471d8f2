import json
import math

import numpy as np
import pytest
import scipy.stats

import bellbox as bb
from bellbox import runs
from bellbox.errors import EmptySettingPair, MixedScenario, SchemaError, SizeLimit

S3 = bb.Scenario(3, 3)
S2 = bb.Scenario(2, 2)
GEOMETRY = bb.Geometry(400.0, 1e-6)


class TestGeometry:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            bb.Geometry(0.0, 1e-6)
        with pytest.raises(ValueError):
            bb.Geometry(400.0, -1.0)

    def test_speed_of_light_default(self):
        assert bb.Geometry(1.0, 1.0).c == 299792458.0


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

    def test_record_outside_scenario_rejected(self):
        with pytest.raises(MixedScenario):
            bb.tally(one_run_log(S2, 2, 0, 0, 1))

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
            with pytest.raises(SizeLimit, match="256 x 257 settings exceed the cap of 65536"):
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
        ],
    )
    def test_malformed_records_rejected(self, tmp_path, line, message):
        path = tmp_path / "runs.jsonl"
        path.write_text(_record_line(0) + "\n" + line + "\n")
        for reader in (bb.read_run_log, bb.tally_run_log):
            with pytest.raises(SchemaError, match=message):
                reader(path)


class TestTallyFile:
    def test_round_trip(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S3), 777, 9, GEOMETRY))
        back = bb.tally_from_json_dict(bb.tally_to_json_dict(t))
        assert back.scenario == t.scenario
        np.testing.assert_array_equal(back.counts, t.counts)

    def test_totals_validated(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S3), 100, 9, GEOMETRY))
        data = bb.tally_to_json_dict(t)
        data["totals"][0][0] += 1
        with pytest.raises(SchemaError):
            bb.tally_from_json_dict(data)

    def test_unknown_field_rejected(self):
        t = bb.tally(bb.simulate(bb.uniform_behavior(S3), 10, 9, GEOMETRY))
        data = bb.tally_to_json_dict(t)
        data["p"] = data["n"]
        with pytest.raises(SchemaError):
            bb.tally_from_json_dict(data)
