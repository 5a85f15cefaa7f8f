import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bellsim
from bellsim import _kernels, cli, harness
from bellsim.cli import main, read_trials_csv, write_trials_csv

README = Path(__file__).resolve().parents[1] / "README.md"
CANONICAL = ["--angles", "0,-90,135,-135"]
TRIAL_CSV_HEADER = (
    "# angles_deg: delta=0.0,delta_prime=-90.0,gamma=135.0,gamma_prime=-135.0"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestChshSim:
    def test_quantum_run(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys,
            "chsh-sim",
            "--state",
            "spin-anticorrelated",
            *CANONICAL,
            "--trials",
            "200000",
            "--seed",
            "7",
            "--out",
            str(out),
        )
        assert code == 0
        assert "S = " in stdout
        report = json.loads(out.read_text())
        assert abs(report["s_mean"] - 2 * math.sqrt(2)) < 0.05
        assert report["violated_5sigma"] is True
        assert report["bound"] == 2.0
        assert report["seed"] == 7
        assert [p["pair"] for p in report["per_pair"]] == ["dg", "dg'", "d'g", "d'g'"]

    def test_lhv_run_respects_bound(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "chsh-sim",
            "--model",
            "sign_model",
            *CANONICAL,
            "--trials",
            "200000",
            "--seed",
            "7",
            "--out",
            str(out),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["s_mean"]) <= 2.0 + 5 * report["s_std_error"]

    @pytest.mark.parametrize(
        "source,angles",
        [
            (["--state", "spin-correlated"], "delta=0.0,delta_prime=-90.0,"
             "gamma=135.0,gamma_prime=-135.0"),
            (["--state", "photon-correlated"], "delta=0.0,delta_prime=-45.0,"
             "gamma=67.5,gamma_prime=-67.5"),
            (["--state", "photon-anticorrelated"], "delta=0.0,delta_prime=-45.0,"
             "gamma=67.5,gamma_prime=-67.5"),
            (["--model", "sign_model"], "delta=0.0,delta_prime=-90.0,"
             "gamma=135.0,gamma_prime=-135.0"),
        ],
    )
    def test_default_angles_follow_the_particle(
        self, tmp_path, capsys, source, angles
    ):
        # photon correlations have half the spin period: at the spin
        # optimum every photon E would be 0
        trials = tmp_path / "trials.csv"
        out = tmp_path / "report.json"
        code, _, _ = run(
            capsys, "chsh-sim", *source, "--trials", "20000", "--seed", "3",
            "--emit-trials", str(trials), "--out", str(out),
        )
        assert code == 0
        assert trials.read_text().splitlines()[0] == f"# angles_deg: {angles}"
        s = abs(json.loads(out.read_text())["s_mean"])
        if source[0] == "--state":
            assert abs(s - 2 * math.sqrt(2)) < 0.1
        else:
            assert s < 2.1

    def test_zero_trials_rejected(self, capsys):
        code, _, stderr = run(
            capsys, "chsh-sim", "--state", "spin-correlated", "--trials", "0"
        )
        assert code == 2
        assert "trials must be >= 1" in stderr

    def test_unknown_model_rejected(self, capsys):
        code, _, stderr = run(
            capsys, "chsh-sim", "--model", "nonesuch", "--trials", "10"
        )
        assert code == 2
        assert "unknown model" in stderr

    def test_environment_does_not_set_the_seed(self, tmp_path, capsys, monkeypatch):
        # the seed comes from the command line alone: 0 unless --seed is given
        monkeypatch.setenv("BELLSIM_SEED", "123")
        argv = ["chsh-sim", "--state", "spin-correlated", "--trials", "5000"]
        out_a = tmp_path / "a.json"
        assert run(capsys, *argv, "--out", str(out_a))[0] == 0
        out_b = tmp_path / "b.json"
        assert run(capsys, *argv, "--seed", "0", "--out", str(out_b))[0] == 0
        assert json.loads(out_a.read_text())["seed"] == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_schedule_option_is_gone(self, capsys):
        # every trial draws its settings pair uniformly at random
        code, _, stderr = run(
            capsys, "chsh-sim", "--state", "spin-correlated", "--schedule", "uniform"
        )
        assert code == 2
        assert "unrecognized arguments: --schedule uniform" in stderr


class TestRoundTrip:
    def test_emit_then_analyze_bit_exact(self, tmp_path, capsys):
        trials = tmp_path / "trials.csv"
        report_a = tmp_path / "sim.json"
        report_b = tmp_path / "analyzed.json"
        code, _, _ = run(
            capsys,
            "chsh-sim",
            "--state",
            "spin-anticorrelated",
            *CANONICAL,
            "--trials",
            "50000",
            "--seed",
            "11",
            "--emit-trials",
            str(trials),
            "--out",
            str(report_a),
        )
        assert code == 0
        code, _, _ = run(capsys, "analyze", str(trials), "--out", str(report_b))
        assert code == 0
        a = json.loads(report_a.read_text())
        b = json.loads(report_b.read_text())
        assert a["s_mean"] == b["s_mean"]
        assert a["s_std_error"] == b["s_std_error"]
        assert [p["E"] for p in a["per_pair"]] == [p["E"] for p in b["per_pair"]]

    def test_rerun_reproduces_file_bytes(self, tmp_path, capsys):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        for path in (first, second):
            run(
                capsys,
                "chsh-sim",
                "--state",
                "photon-correlated",
                *CANONICAL,
                "--trials",
                "20000",
                "--seed",
                "5",
                "--emit-trials",
                str(path),
            )
        assert first.read_bytes() == second.read_bytes()

    def test_csv_writer_reader_inverse(self, tmp_path):
        from bellsim import harness
        from bellsim.qstate import StateKind, make_state

        rad = tuple(math.radians(a) for a in (0.0, -90.0, 135.0, -135.0))
        schedule = harness.chsh_schedule(*rad)
        log = harness.run_trials(
            make_state(StateKind.SPIN_ANTICORRELATED), schedule, 5000, seed=3
        )
        path = tmp_path / "t.csv"
        write_trials_csv(str(path), log, (0.0, -90.0, 135.0, -135.0))
        parsed = read_trials_csv(str(path))
        assert np.array_equal(parsed.pair_index, log.pair_index)
        assert np.array_equal(parsed.outcome_d, log.outcome_d)
        assert np.array_equal(parsed.outcome_g, log.outcome_g)
        assert parsed.pairs == log.pairs


def trial_log(pair_index, d, g):
    # the uint8 row codes that run_trials and read_trials_csv store
    return harness.TrialLog(
        pairs=harness.chsh_schedule(0.0, 0.0, 0.0, 0.0).pairs,
        code=_kernels.trial_codes(
            np.asarray(pair_index, dtype=np.int64),
            np.asarray(d, dtype=np.int8),
            np.asarray(g, dtype=np.int8),
            len(harness.PAIR_LABELS),
        ),
        source_description="test",
    )


finite_angles = st.floats(-720.0, 720.0, allow_nan=False)


class TestTrialCsvRoundTrip:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.sampled_from([1, -1]),
                           st.sampled_from([1, -1])), min_size=1, max_size=300),
        st.tuples(finite_angles, finite_angles, finite_angles, finite_angles),
    )
    def test_write_read_write_is_identity(self, tmp_path, rows, angles):
        log = trial_log(*zip(*rows))
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        write_trials_csv(str(first), log, angles)
        parsed = read_trials_csv(str(first))
        for name in ("pair_index", "outcome_d", "outcome_g"):
            got, want = getattr(parsed, name), getattr(log, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        write_trials_csv(str(second), parsed, angles)
        assert second.read_bytes() == first.read_bytes()

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(-128, 127),
                           st.integers(-128, 127)), min_size=1, max_size=300),
    )
    @example(rows=[(0, 0, 0), (1, 5, -7), (2, -7, 5), (3, 0, -1)])
    def test_file_tallies_as_the_log(self, tmp_path, rows):
        # any int8 outcome: the writer reads its sign as the tally does, so
        # a 0 or a 5 is written +1 and a -7 is written -1
        log = trial_log(*zip(*rows))
        path = tmp_path / "t.csv"
        write_trials_csv(str(path), log, (0.0, -90.0, 135.0, -135.0))
        parsed = read_trials_csv(str(path))
        assert np.array_equal(
            harness.tabulate(parsed).counts, harness.tabulate(log).counts
        )

    @pytest.mark.parametrize("bad", [4, 7, -1, -5])
    def test_pair_index_outside_the_labels_raises(self, tmp_path, bad):
        # a log holds row codes, so the check is made when they are built
        with pytest.raises(ValueError, match="pair index"):
            trial_log([0, bad, 1], [1, 1, 1], [1, 1, 1])

    def test_numpy_float_angles_write_a_readable_header(self, tmp_path, capsys):
        log = trial_log([0, 1, 2, 3], [1, -1, 1, -1], [1, 1, -1, -1])
        angles = (0.0, -90.0, 135.0, -135.0)
        plain = tmp_path / "plain.csv"
        numpy = tmp_path / "numpy.csv"
        write_trials_csv(str(plain), log, angles)
        write_trials_csv(str(numpy), log, tuple(np.float64(a) for a in angles))
        assert numpy.read_bytes() == plain.read_bytes()
        assert plain.read_text().splitlines()[0] == TRIAL_CSV_HEADER
        code, _, stderr = run(capsys, "analyze", str(numpy))
        assert (code, stderr) == (0, "")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-np.inf)])
    def test_non_finite_angle_raises(self, tmp_path, bad):
        log = trial_log([0], [1], [1])
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="angles must be finite"):
            write_trials_csv(str(path), log, (0.0, bad, 0.0, 0.0))
        assert not path.exists()

    def test_memory_budget(self, tmp_path, traced_peak):
        # a 1-byte row code per trial plus one chunk of rows as text;
        # the file is about 10 bytes per row
        n = 500_000
        rad = tuple(math.radians(a) for a in (0.0, -90.0, 135.0, -135.0))
        log = harness.run_trials(
            bellsim.make_state(bellsim.StateKind.SPIN_ANTICORRELATED),
            harness.chsh_schedule(*rad), n, seed=8,
        )
        path = tmp_path / "t.csv"
        _, peak = traced_peak(
            lambda: write_trials_csv(str(path), log, (0.0, -90.0, 135.0, -135.0))
        )
        assert read_trials_csv(str(path)).pair_index.size == n
        assert peak <= 16 * n


def oracle_read_trials_csv(path):
    """The trial CSV reader as first written: the whole file decoded as
    text, one str per line, each looked up in the table of rows."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise bellsim.UsageError(f"input is not UTF-8 text: {exc}") from None
    if lines[-1] == "":
        lines.pop()
    if not lines:
        raise bellsim.UsageError("line 1: missing angles header")
    match = cli._ANGLE_HEADER_RE.match(lines[0])
    if match is None:
        raise bellsim.UsageError(
            "line 1: expected '# angles_deg: delta=...,delta_prime=...,"
            "gamma=...,gamma_prime=...'"
        )
    try:
        angles = [float(v) for v in match.groups()]
    except ValueError:
        raise bellsim.UsageError("line 1: angles must be numeric") from None
    if not all(math.isfinite(a) for a in angles):
        raise bellsim.UsageError("line 1: angles must be finite")
    if len(lines) < 2 or lines[1] != cli.TRIAL_CSV_COLUMNS:
        raise bellsim.UsageError(
            f"line 2: expected header {cli.TRIAL_CSV_COLUMNS!r}"
        )
    codes = []
    for offset, line in enumerate(lines[2:]):
        code = cli._TRIAL_ROW_CODES.get(line)
        if code is None:
            code = cli._parse_trial_row(line, offset + 3)
        if code is not None:
            codes.append(code)
    if not codes:
        raise bellsim.UsageError("no trial rows found")
    return harness.TrialLog(
        pairs=harness.chsh_schedule(*(math.radians(a) for a in angles)).pairs,
        code=np.array(codes, dtype=np.uint8),
        source_description=f"file:{path}",
    )


def read_or_message(reader, path):
    try:
        return reader(path)
    except bellsim.UsageError as exc:
        return str(exc)


def assert_reads_as_the_text_reader(path):
    """Read path with both readers; they must give the same log or the same
    message.  Returns it."""
    want = read_or_message(oracle_read_trials_csv, str(path))
    got = read_or_message(read_trials_csv, str(path))
    if isinstance(want, str):
        assert got == want
        return want
    assert got.pairs == want.pairs
    assert got.source_description == want.source_description
    for name in ("code", "pair_index", "outcome_d", "outcome_g"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return want


def read_in_chunks(tmp_path, monkeypatch, data, chunks):
    """The text reader's reading of data, after checking that the reader
    gives it at each read-chunk size in chunks."""
    path = tmp_path / "chunked.csv"
    path.write_bytes(data)
    for chunk in chunks:
        monkeypatch.setattr(cli, "_READ_CHUNK", chunk)
        reading = assert_reads_as_the_text_reader(path)
    return reading


def read_in_every_chunk_size(tmp_path, monkeypatch, data):
    # 1 byte to the whole file: every line end and byte falls on a boundary
    return read_in_chunks(tmp_path, monkeypatch, data, range(1, len(data) + 2))


def crlf(*lines):
    return "".join(line + "\r\n" for line in lines).encode()


def one_byte_edits(row):
    """The row with one byte (any but the newline) inserted, replaced or
    deleted, in every place."""
    for at in range(len(row) + 1):
        for byte in bytes(range(256)).replace(b"\n", b""):
            yield row[:at] + bytes([byte]) + row[at:]
            yield row[:at] + bytes([byte]) + row[at + 1:]
        yield row[:at] + row[at + 1:]


EDITED_ROWS = [
    edit for row in cli._TRIAL_ROWS for edit in one_byte_edits(row.encode())
]
canonical_rows = st.sampled_from(cli._TRIAL_ROWS).map(str.encode)
clean_rows = st.one_of(
    canonical_rows,
    st.just(b""),
    st.sampled_from(
        ["dg, +1,-1", "dg,01,-1", "d'g,+1,-01", "dg',1,-1", "d'g',+1, -1"]
    ).map(str.encode),
    # separators that str.splitlines honours but that end no line here;
    # int() strips them from the last outcome
    st.tuples(
        st.sampled_from(cli._TRIAL_ROWS),
        st.sampled_from(["\f", "\v", "\u2028", "\x85"]),
    ).map(lambda t: (t[0] + t[1]).encode()),
)
bad_rows = st.one_of(
    # 7 and 11 bytes long, a bad label, a bad sign, a missing field
    st.sampled_from(
        ["dg,+1,-", "d'g',+1,-1x", "dg',+1,+11", "xy,+1,-1", "dg,0,+1",
         "dg,+1", "dg,+1,-1,", "\ufeffdg,+1,-1", "\fdg,+1,-1", "d'g+1,-1"]
    ).map(str.encode),
    st.sampled_from([edit for edit in EDITED_ROWS if edit.isascii()]),
)


@st.composite
def trial_csv_bytes(draw):
    rows = st.one_of(clean_rows, bad_rows) if draw(st.booleans()) else clean_rows
    lines = [TRIAL_CSV_HEADER.encode(), cli.TRIAL_CSV_COLUMNS.encode()]
    lines += draw(st.lists(rows, max_size=30))
    corruption = draw(st.sampled_from([None] * 6 + ["bom", "byte"]))
    if corruption == "bom":
        lines[0] = "\ufeff".encode() + lines[0]
    newlines = st.sampled_from([b"\n", b"\r\n", b"\r"])
    data = b"".join(line + draw(newlines) for line in lines)
    if draw(st.booleans()):  # no newline after the last line
        data = data[: -1 - data.endswith(b"\r\n")]
    if corruption == "byte":
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from([b"\xff", b"\xe2\x80", b"\xc3"]))
        data = data[:at] + byte + data[at:]
    return data


class TestByteReader:
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(trial_csv_bytes())
    @example(data=b"")
    @example(data=b"\n")
    @example(data=TRIAL_CSV_HEADER.encode())
    @example(data=(TRIAL_CSV_HEADER + "\npair,outcome_d,outcome_g").encode())
    @example(data=(TRIAL_CSV_HEADER + "\npair,outcome_d,outcome_g\nd").encode())
    def test_matches_the_text_reader(self, tmp_path, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        assert_reads_as_the_text_reader(path)

    @pytest.mark.parametrize("chunk", [7, 64])
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=trial_csv_bytes())
    def test_matches_the_text_reader_in_small_chunks(
        self, tmp_path, monkeypatch, chunk, data
    ):
        # lines, "\r\n" pairs and UTF-8 faults fall across read boundaries
        monkeypatch.setattr(cli, "_READ_CHUNK", chunk)
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        assert_reads_as_the_text_reader(path)

    def test_crlf_split_across_a_chunk_boundary(self, tmp_path, monkeypatch):
        # were a "\r\n" read as two line ends, the bad row would be line 6
        data = crlf(TRIAL_CSV_HEADER, cli.TRIAL_CSV_COLUMNS, "dg,+1,-1", "dg,+1")
        split = data.index(b"\r\n", data.index(b"dg,")) + 1  # a read ends at "\r"
        want = "line 4: expected 3 comma-separated fields"
        assert read_in_chunks(tmp_path, monkeypatch, data, [split]) == want
        assert read_in_every_chunk_size(tmp_path, monkeypatch, data) == want

    def test_lone_cr_ends_a_chunk(self, tmp_path, monkeypatch):
        data = (TRIAL_CSV_HEADER + "\n" + cli.TRIAL_CSV_COLUMNS
                + "\ndg,+1,-1\rd'g,+1\r").encode()
        split = data.index(b"\r") + 1
        want = "line 4: expected 3 comma-separated fields"
        assert read_in_chunks(tmp_path, monkeypatch, data, [split]) == want
        assert read_in_every_chunk_size(tmp_path, monkeypatch, data) == want

    def test_lone_cr_file(self, tmp_path, monkeypatch):
        rows = ["dg,+1,-1", "d'g',-1,-1", "", "dg',+1,+1", "d'g,-1,+1"]
        data = "\r".join([TRIAL_CSV_HEADER, cli.TRIAL_CSV_COLUMNS, *rows, ""])
        log = read_in_every_chunk_size(tmp_path, monkeypatch, data.encode())
        assert log.code.tolist() == [1, 15, 4, 10]

    def test_malformed_row_opens_a_chunk(self, tmp_path, monkeypatch):
        rows = ["dg,+1,-1", "d'g,-1,+1", "d'g',+1,+1", "dg,+1,-1x", "dg,+1,-1"]
        data = "\n".join([TRIAL_CSV_HEADER, cli.TRIAL_CSV_COLUMNS, *rows, ""]).encode()
        opens = data.index(b"dg,+1,-1x")  # the first read ends just before it
        want = "line 6: outcome must be +1 or -1"
        assert read_in_chunks(tmp_path, monkeypatch, data, [opens]) == want
        assert read_in_every_chunk_size(tmp_path, monkeypatch, data) == want

    @pytest.mark.parametrize("bad, where", [
        (b"\xff", "byte 0xff in position {}: invalid start byte"),
        (b"\xe2\x80", "bytes in position {}-{}: invalid continuation byte"),
    ])
    def test_non_utf8_byte_in_a_later_chunk(self, tmp_path, monkeypatch, bad, where):
        # a malformed row in the first chunk: the text reader decodes the
        # whole file first, so the UTF-8 fault far behind it is reported
        head = "\n".join([TRIAL_CSV_HEADER, cli.TRIAL_CSV_COLUMNS, "dg,+1", ""])
        data = (head + "dg,+1,-1\n" * 40).encode() + bad + b"\ndg,+1,-1\n"
        at = data.index(bad)
        want = "input is not UTF-8 text: 'utf-8' codec can't decode " + where.format(
            at, at + 1
        )
        assert read_in_chunks(tmp_path, monkeypatch, data, [7, 64, 1 << 20]) == want
        assert read_in_every_chunk_size(tmp_path, monkeypatch, data) == want

    def test_missing_final_newline(self, tmp_path, monkeypatch):
        rows = ["dg,+1,-1", "d'g',-1,-1"]
        data = "\n".join([TRIAL_CSV_HEADER, cli.TRIAL_CSV_COLUMNS, *rows])
        log = read_in_every_chunk_size(tmp_path, monkeypatch, data.encode())
        assert log.code.tolist() == [1, 15]

    def test_canonical_rows_are_exactly_the_row_table(self):
        # the column compares accept a line exactly when the table holds it
        lines = [b"", b"d", *(row.encode() for row in cli._TRIAL_ROWS), *EDITED_ROWS]
        lengths = np.array([len(line) for line in lines])
        ends = np.cumsum(lengths + 1) - 1
        buf = np.frombuffer(b"\n".join(lines) + b"\n", dtype=np.uint8)
        code, canonical = cli._canonical_row_codes(buf, ends - lengths, ends)
        want = [cli._TRIAL_ROW_CODES.get(line.decode("latin-1")) for line in lines]
        assert canonical.tolist() == [w is not None for w in want]
        assert code[canonical].tolist() == [w for w in want if w is not None]

    def test_memory_budget(self, tmp_path, traced_peak):
        # the 1-byte row code per trial that the log returns, plus one read
        # chunk's bytes, line offsets and column compares, whatever the size
        # of the file: a bound that two file sizes must both meet
        rad = tuple(math.radians(a) for a in (0.0, -90.0, 135.0, -135.0))
        for n in (500_000, 2_000_000):
            log = harness.run_trials(
                bellsim.make_state(bellsim.StateKind.SPIN_ANTICORRELATED),
                harness.chsh_schedule(*rad), n, seed=8,
            )
            path = tmp_path / "t.csv"
            write_trials_csv(str(path), log, (0.0, -90.0, 135.0, -135.0))
            parsed, peak = traced_peak(lambda: read_trials_csv(str(path)))
            assert np.array_equal(parsed.code, log.code)
            assert peak <= n + 8 * cli._READ_CHUNK


class TestAnalyzeValidation:
    HEADER = (
        "# angles_deg: delta=0.0,delta_prime=-90.0,gamma=135.0,gamma_prime=-135.0"
    )
    COLUMNS = "pair,outcome_d,outcome_g"

    def write(self, tmp_path, rows):
        path = tmp_path / "trials.csv"
        path.write_text("\n".join([self.HEADER, self.COLUMNS, *rows]) + "\n")
        return str(path)

    def test_bad_outcome_cites_line_number(self, tmp_path, capsys):
        # valid rows fill physical lines 3-16, a zero outcome lands on line 17
        rows = ["dg,+1,-1", "dg',+1,-1", "d'g,+1,-1", "d'g',+1,-1"] * 3
        rows += ["dg,+1,-1", "dg',+1,-1"]
        rows.append("dg,0,+1")
        path = self.write(tmp_path, rows)
        code, _, stderr = run(capsys, "analyze", path)
        assert code == 2
        assert "line 17: outcome must be +1 or -1" in stderr

    def test_bad_pair_label(self, tmp_path, capsys):
        path = self.write(tmp_path, ["xy,+1,-1"])
        code, _, stderr = run(capsys, "analyze", path)
        assert code == 2
        assert "line 3" in stderr and "pair label" in stderr

    def test_missing_pair_named(self, tmp_path, capsys):
        path = self.write(tmp_path, ["dg,+1,-1", "dg',+1,-1", "d'g,+1,-1"])
        code, _, stderr = run(capsys, "analyze", path)
        assert code == 2
        assert "d'g'" in stderr

    def test_bad_header(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        path.write_text("angles: nope\n")
        code, _, stderr = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 1" in stderr

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_header_angle(self, tmp_path, capsys, bad):
        path = tmp_path / "t.csv"
        header = self.HEADER.replace("gamma=135.0", f"gamma={bad}")
        path.write_text("\n".join([header, self.COLUMNS, "dg,+1,-1"]) + "\n")
        code, stdout, stderr = run(capsys, "analyze", str(path))
        assert code == 2
        assert "line 1: angles must be finite" in stderr
        assert stdout == ""

    def test_degenerate_four_rows(self, tmp_path, capsys):
        path = self.write(
            tmp_path, ["dg,+1,+1", "dg',+1,+1", "d'g,+1,+1", "d'g',+1,+1"]
        )
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "analyze", path, "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text())["s_mean"] == 2.0

    def test_first_of_two_bad_lines_is_reported(self, tmp_path, capsys):
        path = self.write(
            tmp_path, ["dg,+1,-1", "dg',+1,-1", "dg,2,+1", "zz,+1,+1"]
        )
        code, _, stderr = run(capsys, "analyze", path)
        assert code == 2
        assert "line 5: outcome must be +1 or -1" in stderr
        assert "line 6" not in stderr

    ROWS = ["dg,+1,-1", "dg',-1,-1", "d'g,+1,+1", "d'g',-1,+1", "dg,-1,+1"]

    def analysis(self, capsys, tmp_path, body, newline="\n"):
        """stdout and report JSON of analyzing a file, less its file name."""
        path = tmp_path / "in.csv"
        path.write_bytes(
            newline.join([self.HEADER, self.COLUMNS, *body, ""]).encode()
        )
        out = tmp_path / "r.json"
        code, stdout, stderr = run(capsys, "analyze", str(path), "--out", str(out))
        assert (code, stderr) == (0, "")
        report = json.loads(out.read_text())
        report.pop("source")
        return stdout.splitlines()[1:], report

    def test_blank_body_line_is_skipped(self, tmp_path, capsys):
        blank = [*self.ROWS[:2], "", *self.ROWS[2:], ""]
        assert self.analysis(capsys, tmp_path, blank) == self.analysis(
            capsys, tmp_path, self.ROWS
        )

    def test_crlf_file_reads_like_lf(self, tmp_path, capsys):
        assert self.analysis(capsys, tmp_path, self.ROWS, "\r\n") == self.analysis(
            capsys, tmp_path, self.ROWS
        )

    @pytest.mark.parametrize(
        "lenient", ["dg, +1,-1", "dg,01,-1", "dg,+1,-01", "dg,1,-1"]
    )
    def test_lenient_integer_forms_are_accepted(self, tmp_path, capsys, lenient):
        # the row parser reads outcomes with int(), so these parse as dg,+1,-1
        loose = [lenient, *self.ROWS[1:]]
        assert self.analysis(capsys, tmp_path, loose) == self.analysis(
            capsys, tmp_path, self.ROWS
        )

    def test_empty_log_writes_only_the_headers(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        write_trials_csv(str(path), trial_log([], [], []), (0.0, -90.0, 135.0, -135.0))
        assert path.read_bytes() == (self.HEADER + "\n" + self.COLUMNS + "\n").encode()
        code, _, stderr = run(capsys, "analyze", str(path))
        assert code == 2
        assert "no trial rows found" in stderr

    @pytest.mark.parametrize("separator", ["\f", "\v", "\x85", "\u2028", "\u2029"])
    def test_line_numbers_count_only_newlines(self, tmp_path, capsys, separator):
        # str.splitlines breaks at these too; the row of line 3 keeps its
        # trailing separator, which int() strips, and the bad row stays on
        # physical line 7
        rows = [f"dg,+1,-1{separator}", "dg',+1,-1", "d'g,+1,-1", "d'g',+1,-1"]
        path = tmp_path / "trials.csv"
        text = "\n".join([self.HEADER, self.COLUMNS, *rows, "dg,+1"]) + "\n"
        path.write_bytes(text.encode("utf-8"))
        code, stdout, stderr = run(capsys, "analyze", str(path))
        assert (code, stdout) == (2, "")
        assert stderr == "error: line 7: expected 3 comma-separated fields\n"

    def test_missing_file_is_runtime_error(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "analyze", str(tmp_path / "absent.csv"))
        assert code == 1


class TestWignerScanCommand:
    def test_default_scan(self, capsys):
        code, stdout, _ = run(
            capsys, "wigner-scan", "--theta1", "0", "--theta3", "90", "--steps", "19"
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "theta2_deg,lhs,rhs,margin"
        assert len(lines) == 20
        margins = [float(l.split(",")[3]) for l in lines[1:]]
        assert all(m > 0 for m in margins[1:-1])

    def test_margin_at_45(self, capsys):
        code, stdout, _ = run(capsys, "wigner-scan", "--steps", "19")
        rows = {
            float(l.split(",")[0]): float(l.split(",")[3])
            for l in stdout.strip().splitlines()[1:]
        }
        assert abs(rows[45.0] - 0.103553) < 1e-6

    @pytest.mark.parametrize(
        "state",
        ["spin-anticorrelated", "spin-correlated", "photon-correlated",
         "photon-anticorrelated"],
    )
    def test_every_state_peaks_at_midpoint(self, capsys, state):
        # the default scan reads each state's own sign form over its own
        # default outer angle, so all four give the singlet's curve
        code, stdout, _ = run(capsys, "wigner-scan", "--state", state, "--steps", "19")
        assert code == 0
        margins = [float(l.split(",")[3]) for l in stdout.strip().splitlines()[1:]]
        assert len(margins) == 19
        assert max(margins) == margins[9]
        assert abs(margins[9] - 0.103553) < 1e-6
        assert all(m > 0 for m in margins[1:-1])

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code, stdout, _ = run(capsys, "wigner-scan", "--steps", "5", "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "theta2_deg,lhs,rhs,margin"

    def test_step_validation(self, capsys):
        code, _, stderr = run(capsys, "wigner-scan", "--steps", "1")
        assert code == 2
        assert "steps must be >= 3" in stderr


class TestEnumerateCommand:
    EXPECTED_S = "+2,+2,+2,-2,-2,-2,+2,-2,-2,+2,-2,-2,-2,+2,+2,+2"

    def test_text_s_row(self, capsys):
        code, stdout, _ = run(capsys, "enumerate")
        assert code == 0
        s_lines = [l for l in stdout.splitlines() if l.startswith("S: ")]
        assert s_lines == [f"S: {self.EXPECTED_S}"]

    def test_csv(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--format", "csv")
        lines = stdout.strip().splitlines()
        assert len(lines) == 17
        assert lines[1] == "1,+1,+1,+1,+1,+2"

    def test_json_round_trips(self, capsys):
        code, stdout, _ = run(capsys, "enumerate", "--format", "json")
        payload = json.loads(stdout)
        assert len(payload) == 16
        assert payload == json.loads(json.dumps(payload))
        assert [q["S"] for q in payload] == [int(s) for s in self.EXPECTED_S.split(",")]

    def test_sextets(self, capsys):
        code, stdout, _ = run(
            capsys, "enumerate", "--sextets", "--sign", "anticorrelated",
            "--format", "csv",
        )
        lines = stdout.strip().splitlines()
        assert len(lines) == 9
        assert lines[1] == "+1,+1,+1,-1,-1,-1"

    def test_sextets_correlated_json(self, capsys):
        code, stdout, _ = run(
            capsys, "enumerate", "--sextets", "--sign", "correlated",
            "--format", "json",
        )
        payload = json.loads(stdout)
        assert len(payload) == 8
        assert all(item["d"] == item["g"] for item in payload)


class TestLhvSimCommand:
    def test_sign_model_quarter_turn(self, tmp_path, capsys):
        out = tmp_path / "lhv.json"
        code, stdout, _ = run(
            capsys,
            "lhv-sim",
            "--model",
            "sign_model",
            "--delta",
            "0",
            "--gamma",
            "90",
            "--trials",
            "50000",
            "--seed",
            "3",
            "--out",
            str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["quadrature"]) < 1e-6
        assert abs(payload["mc_mean"]) <= 5 * payload["mc_std_error"]

    def test_unknown_model(self, capsys):
        code, _, stderr = run(capsys, "lhv-sim", "--model", "nope")
        assert code == 2
        assert "unknown model" in stderr


class TestMaximizeCommand:
    def test_finds_tsirelson(self, tmp_path, capsys):
        out = tmp_path / "max.json"
        code, stdout, _ = run(
            capsys, "maximize", "--state", "spin-anticorrelated", "--out", str(out)
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert abs(payload["s_star"] - 2 * math.sqrt(2)) < 1e-6

    @pytest.mark.parametrize(
        "state",
        [
            "spin-anticorrelated",
            "spin-correlated",
            "photon-correlated",
            "photon-anticorrelated",
        ],
    )
    def test_one_degree_grid(self, capsys, state):
        # a 360^4-point grid: a search holding every point at once would
        # need a 134 GB temporary
        code, stdout, _ = run(
            capsys, "maximize", "--state", state, "--coarse-step", "1"
        )
        assert code == 0
        s_star = float(stdout.split("s_star = ")[1])
        assert abs(s_star - 2 * math.sqrt(2)) < 1e-6

    def test_step_validation(self, capsys):
        code, _, stderr = run(capsys, "maximize", "--coarse-step", "20")
        assert code == 2
        assert "coarse-step" in stderr

    @pytest.mark.parametrize("step", ["0.25", "0", "nan"])
    def test_step_below_the_floor_is_rejected(self, capsys, step):
        # 0.25 degrees would hold eight 1440 x 1440 arrays for 24 s; the
        # floor of 0.5 refuses it before any grid is built
        code, stdout, stderr = run(capsys, "maximize", "--coarse-step", step)
        assert code == 2
        assert stdout == ""
        assert "coarse-step must be in [0.5, 15] degrees" in stderr

    def test_refine_iters_option_is_gone(self, capsys):
        code, _, stderr = run(capsys, "maximize", "--refine-iters", "200")
        assert code == 2
        assert "--refine-iters" in stderr


@pytest.mark.parametrize("module", ["bellsim", "bellsim.cli"])
def test_python_dash_m_runs_cli(module):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run(
        [sys.executable, "-m", module, "enumerate"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0].startswith("d_delta:")


def test_version():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "bellsim", "--version"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        timeout=60,
    )
    declared = re.search(
        r'^version = "([^"]+)"$', (root / "pyproject.toml").read_text(), re.M
    ).group(1)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == f"bellsim {bellsim.__version__}\n"
    assert bellsim.__version__ == declared


def test_usage_error_exit_code(capsys):
    assert main(["chsh-sim", "--bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["lhv-sim", "--model", "sign_model", "--delta", "nan"],
        ["lhv-sim", "--model", "sign_model", "--gamma", "inf"],
        ["wigner-scan", "--theta1", "nan"],
        ["wigner-scan", "--theta3", "inf"],
    ],
)
def test_nonfinite_angle_is_usage_error(capsys, argv):
    code, stdout, stderr = run(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert f"error: {argv[-2]} must be finite" in stderr


def test_negative_seed_is_usage_error(capsys):
    code, _, stderr = run(
        capsys, "chsh-sim", "--state", "spin-correlated", "--trials", "10",
        "--seed", "-1",
    )
    assert code == 2
    assert "seed must be >= 0" in stderr


@pytest.mark.parametrize(
    "argv,csv_text,message",
    [
        (["chsh-sim", "--state", "spin-correlated", "--angles", "0,90,45"], None,
         "expected four comma-separated angles: "
         "delta,delta_prime,gamma,gamma_prime"),
        (["chsh-sim", "--state", "spin-correlated", "--angles", "0,x,45,135"], None,
         "angles must be numeric, got '0,x,45,135'"),
        (["chsh-sim", "--state", "spin-correlated", "--angles", "0,nan,45,135"], None,
         "angles must be finite"),
        (["analyze"], f"{TRIAL_CSV_HEADER}\npair,outcome_d,outcome_g\ndg,+1\n",
         "line 3: expected 3 comma-separated fields"),
        (["analyze"], f"{TRIAL_CSV_HEADER}\npair,outcome_d,outcome_g\ndg,x,+1\n",
         "line 3: outcome must be +1 or -1"),
        (["analyze"], "", "line 1: missing angles header"),
        (["analyze"],
         TRIAL_CSV_HEADER.replace("gamma=135.0", "gamma=abc")
         + "\npair,outcome_d,outcome_g\ndg,+1,-1\n",
         "line 1: angles must be numeric"),
        (["analyze"], f"{TRIAL_CSV_HEADER}\npair,d,g\ndg,+1,-1\n",
         "line 2: expected header 'pair,outcome_d,outcome_g'"),
        (["lhv-sim", "--model", "sign_model", "--trials", "0"], None,
         "trials must be >= 1"),
        (["lhv-sim", "--model", "sign_model", "--nodes", "999"], None,
         "nodes must be >= 1000"),
        # the quadrature runs before the Monte Carlo draws, so it reports first
        (["lhv-sim", "--model", "sign_model", "--trials", "0", "--nodes", "999"],
         None, "nodes must be >= 1000"),
        # the seed bound is the library's, checked where the trials are
        (["lhv-sim", "--model", "sign_model", "--seed", "-1"], None,
         "seed must be >= 0"),
        (["lhv-sim", "--model", "sign_model", "--seed", "-1", "--nodes", "999"],
         None, "nodes must be >= 1000"),
        (["chsh-sim", "--state", "spin-correlated", "--trials", "0", "--seed", "-1"],
         None, "trials must be >= 1"),
        (["chsh-sim", "--model", "nonesuch", "--seed", "-1"], None,
         "unknown model 'nonesuch' "
         "(available: sign_model, constant_model, quantum_mimic_attempt)"),
    ],
)
def test_rejected_input_exits_2(tmp_path, capsys, argv, csv_text, message):
    if csv_text is not None:
        path = tmp_path / "trials.csv"
        path.write_text(csv_text, encoding="utf-8")
        argv = [*argv, str(path)]
    code, stdout, stderr = run(capsys, *argv)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


def test_too_few_trials_names_empty_pair(tmp_path, capsys):
    # two trials leave at least two of the four pairs without a trial
    trials = tmp_path / "trials.csv"
    code, _, stderr = run(
        capsys, "chsh-sim", "--state", "spin-correlated", "--trials", "2",
        "--emit-trials", str(trials),
    )
    assert code == 2
    label = re.fullmatch(
        r"error: no trials recorded for settings pair '(.+)'\n", stderr
    ).group(1)
    assert label in harness.PAIR_LABELS
    pair = harness.PAIR_LABELS.index(label)
    assert pair not in read_trials_csv(str(trials)).pair_index


def test_non_utf8_csv_is_usage_error(tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_bytes(b"\xff\xfe# angles_deg\n")
    code, _, stderr = run(capsys, "analyze", str(path))
    assert code == 2
    assert "not UTF-8" in stderr


def test_internal_error_is_not_a_usage_error(capsys, monkeypatch):
    # exit code 2 is reserved for validated user errors; a bug inside the
    # library must surface as itself
    from bellsim import harness

    def broken(log):
        raise ValueError("internal failure")

    monkeypatch.setattr(harness, "tabulate", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["chsh-sim", "--state", "spin-correlated", "--trials", "10"])
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_readme_cli_examples_parse():
    # every command of README's CLI block, continuation lines joined, is
    # one the parser takes: a removed option cannot stay in the docs
    text = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    commands = [
        line.split()[1:] for line in block.splitlines() if line.startswith("bellsim ")
    ]
    assert len(commands) >= 10 and ["--version"] in commands
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
        assert code == (0 if argv == ["--version"] else None), argv
