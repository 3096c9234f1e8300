import errno
import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jaco
from jaco import analysis, cli, export, oracles, sequences
from jaco.cli import main
from jaco.graph import build
from jaco.paths import path_table, psi_oracle

# the directory holding the jaco this run imports, for the child processes
# (src/ in a checkout, site-packages for an installed package)
PACKAGE_ROOT = str(Path(jaco.__file__).parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuild:
    def test_dot_default(self, capsys):
        code, out, _ = run(capsys, "build", "--a", "1", "--n", "3")
        assert code == 0
        assert out == "digraph jaco_a1_n3 {\n  v1 -> v2;\n  v2 -> v3;\n}\n"

    def test_csv_header_only(self, capsys):
        code, out, _ = run(capsys, "build", "--a", "1", "--n", "1", "--format", "csv")
        assert code == 0
        assert out == "tail,head\n"

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "graph.json"
        code, out, _ = run(capsys, "build", "--a", "2", "--n", "7", "--format", "json")
        assert code == 0
        code2 = main(["build", "--a", "2", "--n", "7", "--format", "json",
                      "--out", str(target)])
        capsys.readouterr()
        assert code2 == 0
        assert target.read_text() == out

    def test_each_format_runs_the_renderer_bound_at_call_time(self, capsys, monkeypatch):
        g = build(2, 7)
        for fmt in export.FORMATS:
            code, out, _ = run(capsys, "build", "--a", "2", "--n", "7", "--format", fmt)
            assert (code, out) == (0, getattr(export, f"to_{fmt}")(g)), fmt
        # a wrapper bound over a renderer, as a tracer binds one, is the one run
        monkeypatch.setattr(export, "to_csv", lambda g: "wrapped\n")
        code, out, _ = run(capsys, "build", "--a", "2", "--n", "7", "--format", "csv")
        assert (code, out) == (0, "wrapped\n")

    def test_unknown_format(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--a", "1", "--n", "3", "--format", "svg"])
        assert exc.value.code == 2

    def test_io_failure(self, capsys):
        code, _, err = run(capsys, "build", "--a", "1", "--n", "3",
                           "--out", "/nonexistent-dir/x.dot")
        assert code == 3
        assert "cannot write" in err

    def test_failed_write_keeps_target_and_leaves_no_temp_file(self, capsys, tmp_path,
                                                               monkeypatch):
        target = tmp_path / "graph.dot"
        target.write_text("old contents\n")
        real_open = open

        class HalfWritten:
            # writes half the text, then fails as a full disk would
            def __init__(self, *args, **kwargs):
                self.handle = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.handle.close()

            def write(self, text):
                self.handle.write(text[: len(text) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open", HalfWritten, raising=False)
        code, _, err = run(capsys, "build", "--a", "2", "--n", "40", "--out", str(target))
        assert code == 3
        assert "cannot write" in err
        assert target.read_text() == "old contents\n"
        assert os.listdir(tmp_path) == ["graph.dot"]

    def test_failed_replace_leaves_no_temp_file(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied")

        monkeypatch.setattr(cli.os, "replace", refuse)
        code, _, _ = run(capsys, "build", "--a", "1", "--n", "3",
                         "--out", str(tmp_path / "graph.dot"))
        assert code == 3
        assert os.listdir(tmp_path) == []

    def test_relative_out_lands_in_the_working_directory(self, capsys, tmp_path,
                                                         monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(capsys, "build", "--a", "1", "--n", "3", "--format", "csv",
                         "--out", "graph.csv")
        assert code == 0
        assert os.listdir(tmp_path) == ["graph.csv"]
        assert (tmp_path / "graph.csv").read_text() == "tail,head\n1,2\n2,3\n"

    def test_new_file_gets_the_umask_mode(self, capsys, tmp_path):
        target = tmp_path / "graph.csv"
        old = os.umask(0o022)
        try:
            code, _, _ = run(capsys, "build", "--a", "1", "--n", "3", "--format", "csv",
                             "--out", str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert target.stat().st_mode & 0o777 == 0o644

    def test_existing_file_keeps_its_mode(self, capsys, tmp_path):
        target = tmp_path / "graph.csv"
        target.write_text("old\n")
        target.chmod(0o600)
        old = os.umask(0o022)
        try:
            code, _, _ = run(capsys, "build", "--a", "1", "--n", "3", "--format", "csv",
                             "--out", str(target))
        finally:
            os.umask(old)
        assert code == 0
        assert target.read_text() == "tail,head\n1,2\n2,3\n"
        assert target.stat().st_mode & 0o777 == 0o600

    def test_symlink_target_is_followed(self, capsys, tmp_path):
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        code, _, _ = run(capsys, "build", "--a", "1", "--n", "3", "--format", "csv",
                         "--out", str(link))
        assert code == 0
        assert link.is_symlink()
        assert real.read_text() == "tail,head\n1,2\n2,3\n"

    def test_pipe_target_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        code, _, _ = run(capsys, "build", "--a", "1", "--n", "3", "--format", "csv",
                         "--out", str(fifo))
        reader.join(timeout=10)
        assert code == 0
        assert got == ["tail,head\n1,2\n2,3\n"]
        assert os.listdir(tmp_path) == ["pipe"]


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--a", "1", "--n", "3", "--bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["paths", "--a", "1", "--n", "3", "--oracle-psi"])  # --psi has one spelling
        assert exc.value.code == 2

    def test_invalid_order(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--a", "0", "--n", "3"])
        assert exc.value.code == 2

    def test_invalid_vertex_count(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--a", "1", "--n", "0"])
        assert exc.value.code == 2


class TestSeq:
    def test_dump(self, capsys):
        code, out, _ = run(capsys, "seq", "--a", "1", "--horizon", "3")
        assert code == 0
        assert out.splitlines()[0] == "n\tc\td_minus\td_plus\treach"
        assert out.splitlines()[3] == "2\t1\t1\t1\t3"

    def test_closed_form_check(self, capsys):
        code, out, _ = run(capsys, "seq", "--a", "2", "--horizon", "50",
                           "--check-closed-form")
        assert code == 0
        assert out.splitlines()[-1] == "CLOSED-FORM OK"


class TestZeck:
    def test_digits_and_tau(self, capsys):
        code, out, _ = run(capsys, "zeck", "--a", "2", "--value", "8")
        assert code == 0
        assert out == "alpha[1]=1\nalpha[2]=1\nalpha[3]=1\ntau=1\nvalue_check=OK\n"

    def test_zero(self, capsys):
        code, out, _ = run(capsys, "zeck", "--a", "3", "--value", "0")
        assert code == 0
        assert out == "value_check=OK\n"


class TestVerify:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--a-min", "1", "--a-max", "2",
                           "--n", "60")
        assert code == 0
        assert out.splitlines()[-1] == "OVERALL PASS"
        assert sum(1 for line in out.splitlines() if line.startswith("CLAIM ")) >= 15

    def test_jobs_do_not_change_output(self, capsys):
        _, serial, _ = run(capsys, "verify", "--a-min", "1", "--a-max", "2",
                           "--n", "40", "--jobs", "1")
        _, parallel, _ = run(capsys, "verify", "--a-min", "1", "--a-max", "2",
                             "--n", "40", "--jobs", "3")
        assert serial == parallel

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "verify", "--a-min", "3", "--a-max", "1",
                           "--n", "10")
        assert code == 2
        assert "3..1" in err


class TestPaths:
    def test_dist_only(self, capsys):
        code, out, _ = run(capsys, "paths", "--a", "1", "--n", "8")
        assert code == 0
        assert out == "1 0\n2 1\n3 2\n4 3\n5 3\n6 4\n7 4\n8 4\n"

    def test_psi_recursion(self, capsys):
        code, out, _ = run(capsys, "paths", "--a", "1", "--n", "13", "--psi")
        assert code == 0
        assert out.splitlines()[8] == "9 5 5"

    def test_psi_reads_path_table_at_every_order(self, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("paths must not call psi_recursive")

        monkeypatch.setattr(oracles, "psi_recursive", refuse)
        for a in (1, 2, 3):
            code, psi, _ = run(capsys, "paths", "--a", str(a), "--n", "40", "--psi")
            assert code == 0
            assert psi.count("\n") == 40 and psi.endswith("\n")

    def test_psi_any_order(self, capsys):
        code, out, _ = run(capsys, "paths", "--a", "2", "--n", "5", "--psi")
        assert code == 0
        assert all(len(line.split()) == 3 for line in out.splitlines())
        for a in (1, 2, 3):
            for n in (1, 2, 13, 300):
                code, out, _ = run(capsys, "paths", "--a", str(a), "--n", str(n), "--psi")
                assert code == 0
                printed = [int(line.split()[2]) for line in out.splitlines()]
                assert printed == list(psi_oracle(build(a, n))[1:])

    @pytest.mark.parametrize("a", [1, 2])
    def test_block_edges(self, capsys, a):
        # outputs that end just before, at and just after a block edge
        block = export._BLOCK
        for n in (block - 1, block, block + 1, 2 * block, 2 * block + 1):
            dist, psi = path_table(build(a, n))
            code, out, _ = run(capsys, "paths", "--a", str(a), "--n", str(n), "--psi")
            assert code == 0
            assert out == "".join(f"{i} {dist[i]} {psi[i]}\n" for i in range(1, n + 1))
            code, out, _ = run(capsys, "paths", "--a", str(a), "--n", str(n))
            assert code == 0
            assert out == "".join(f"{i} {dist[i]}\n" for i in range(1, n + 1))

    def test_peak_stays_near_the_text(self, monkeypatch):
        # rows are joined in blocks, so no string per row is alive at once;
        # the graph and its path table are built before tracing starts
        g = build(1, 200_000)
        table = path_table(g)
        monkeypatch.setattr(cli.graph, "build", lambda a, n: g)
        monkeypatch.setattr(cli.paths, "path_table", lambda g: table)
        args = cli._PARSER.parse_args(["paths", "--a", "1", "--n", "200000", "--psi"])
        tracemalloc.start()
        try:
            text, ok = cli._cmd_paths(args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok and text.count("\n") == 200_000
        assert peak <= 2.5 * len(text), f"peak {peak} text {len(text)}"


class TestMilestone:
    def test_example(self, capsys):
        code, out, _ = run(capsys, "milestone", "--a", "2")
        assert code == 0
        assert out == "n_star=7\n"


class TestConjecture:
    def test_scan(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--n", "13")
        assert code == 0
        assert out.splitlines()[-1] == "SUMMARY scanned=7..12 violations=0"

    def test_too_small(self, capsys):
        code, _, err = run(capsys, "conjecture", "--n", "8")
        assert code == 2
        assert "got 8" in err


# sha256 of stdout, recorded from the per-vertex kernels these outputs were
# first computed with; the level-at-a-time kernels must reproduce every byte
LARGE_OUTPUT_DIGESTS = {
    "conjecture --n 20000":
        "fc0291aae45b7eda2b258ff6f54bb4821474fce7e1512ec46c2a1dd18cb95cea",
    "paths --a 1 --n 5000 --psi":
        "56975467144e4d24d0e5f453fab536d202c57b26c72b066e6e7e01e4bf09e95a",
    "paths --a 2 --n 5000 --psi":
        "914edcf87d2be63494e76551df99a56b2d77559b70113e931c7b243e83b7d856",
    "paths --a 3 --n 5000 --psi":
        "d800df7d8a622c7a60a73f0f15d2b558bb550fcda5eb1c09ca0ca63256faec7e",
    "seq --a 2 --horizon 5000":
        "a1f6c0c442db4265cab1e15f3f907ae8bf9ffa71e19ca3bc6ec8c1faa7b419f6",
}


@pytest.mark.parametrize("argv", sorted(LARGE_OUTPUT_DIGESTS))
def test_large_output_digest(capsys, argv):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_OUTPUT_DIGESTS[argv]


class TestExitStatus:
    @staticmethod
    def perturb_closed_form(monkeypatch, at):
        real = sequences.c_closed

        def closed(a, n):
            return real(a, n) + (n == at)

        monkeypatch.setattr(sequences, "c_closed", closed)

    def test_violation_exits_1_after_writing_the_text(self, capsys, monkeypatch):
        _, clean, _ = run(capsys, "seq", "--a", "2", "--horizon", "20")
        self.perturb_closed_form(monkeypatch, 13)
        code, out, _ = run(capsys, "seq", "--a", "2", "--horizon", "20",
                           "--check-closed-form")
        assert code == 1
        assert out == clean + "CLOSED-FORM MISMATCH\n"

    def test_write_failure_outranks_violation(self, capsys, monkeypatch, tmp_path):
        self.perturb_closed_form(monkeypatch, 13)
        code, _, err = run(capsys, "seq", "--a", "2", "--horizon", "20",
                           "--check-closed-form", "--out", str(tmp_path / "no" / "x.tsv"))
        assert code == 3
        assert "cannot write" in err

    def test_stdout_write_failure_exits_3(self, capsys, monkeypatch):
        class FullStdout:
            # an in-process stream with no descriptor, failing as a full disk
            def write(self, text):
                raise OSError(errno.ENOSPC, "No space left on device")

            def flush(self):
                pass

        monkeypatch.setattr(cli.sys, "stdout", FullStdout())
        code, _, err = run(capsys, "milestone", "--a", "2")
        assert code == 3
        assert err.startswith("jaco: cannot write standard output") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, lines", [
        # a long report whose reader takes one line, as `| head -1` does
        ("seq --a 1 --horizon 300000", 1),
        # a short one whose reader is gone before it is written: the text
        # sits in the stream's buffer for the interpreter's last flush
        ("milestone --a 2", 0),
    ])
    def test_closed_pipe_exits_3_without_traceback(self, argv, lines):
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered as by default
        with subprocess.Popen([sys.executable, "-m", "jaco.cli", *argv.split()],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            for _ in range(lines):
                proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            code = proc.wait(timeout=60)
        assert code == 3
        assert err.startswith("jaco: cannot write standard output")
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", ["--help", "milestone --help"])
    def test_help_on_a_full_disk_exits_3(self, argv, unbuffered):
        # argparse prints help itself: buffered, the last flush used to fail
        # (exit 120); unbuffered, it dropped the OSError and exited 0
        env = {**os.environ, "PYTHONPATH": PACKAGE_ROOT}
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "jaco.cli", *argv.split()],
                                  stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
        err = proc.stderr.decode()
        assert proc.returncode == 3
        assert err.startswith("jaco: cannot write standard output") and err.count("\n") == 1

    def test_theorem_violation_exits_1(self, capsys, monkeypatch):
        def flat_table(a, horizon):
            return sequences.SequenceTable(a, tuple([0] * (horizon + 1)))

        monkeypatch.setattr(sequences, "c_series", flat_table)
        code, out, err = run(capsys, "milestone", "--a", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("jaco: ")

    def test_claim_that_raises_exits_1_with_the_whole_report(self, capsys, monkeypatch):
        real = sequences.c_series

        def broken_seed(a, horizon):
            table = real(a, horizon)
            return table._replace(c=(0, 2)) if horizon == 1 else table

        monkeypatch.setattr(sequences, "c_series", broken_seed)
        code, out, err = run(capsys, "verify", "--a-min", "1", "--a-max", "3", "--n", "40")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert len(lines) == len(analysis._CLAIMS) + 1 and lines[-1] == "OVERALL FAIL"
        assert [line for line in lines if " FAIL " in line] == [
            "CLAIM seq.seed_values FAIL checked=a[1..3] counterexample=a=1 c[0]=0 c[1]=2",
            "CLAIM graph.complete_prefix FAIL checked=a[1..3] m<=a+1"
            " counterexample=a=1 raised IndexError",
            "CLAIM analysis.complete_prefix_count FAIL checked=a[1..3] m<=a+1"
            " counterexample=a=1 raised ValueError",
        ]

    # above 2**60 items CPython refuses the table before allocating it (a
    # MemoryError, or an OverflowError past the index range), so these argvs
    # allocate nothing; sizes between ~10**8 and 2**60 would really allocate
    @pytest.mark.parametrize("argv", [
        *([command, "--a", "1", flag, str(size)]
          for command, flag in [("seq", "--horizon"), ("paths", "--n"), ("build", "--n")]
          for size in (2**62, 2**63)),
        *(["conjecture", "--n", str(size)] for size in (2**62, 2**63)),
        *(["verify", "--n", str(size)] for size in (2**62, 2**63)),
        ["milestone", "--a", str(10**9)],
    ], ids=" ".join)
    def test_too_large_input_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("jaco: input too large") and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_help_lists_out(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out


class TestRepeatedCalls:
    # main builds its parser once per process, so no call may leak into the next
    def test_back_to_back_calls_share_no_state(self, capsys, tmp_path, monkeypatch):
        parsed = []
        parse = cli._PARSER.parse_args
        monkeypatch.setattr(cli._PARSER, "parse_args",
                            lambda argv: parsed.append(argv) or parse(argv))
        code, out, _ = run(capsys, "paths", "--a", "1", "--n", "3", "--psi")
        assert (code, out) == (0, "1 0 1\n2 1 1\n3 2 1\n")
        code, out, _ = run(capsys, "paths", "--a", "1", "--n", "3")
        assert (code, out) == (0, "1 0\n2 1\n3 2\n")
        target = tmp_path / "g.csv"
        code, out, _ = run(capsys, "build", "--a", "1", "--n", "3", "--format", "csv",
                           "--out", str(target))
        assert (code, out) == (0, "")
        assert target.read_text() == "tail,head\n1,2\n2,3\n"
        with pytest.raises(SystemExit) as exc:
            main(["build", "--a", "0", "--n", "3"])
        assert exc.value.code == 2
        code, out, _ = run(capsys, "build", "--a", "1", "--n", "3")
        assert (code, out) == (0, "digraph jaco_a1_n3 {\n  v1 -> v2;\n  v2 -> v3;\n}\n")
        # every call parsed with the one module-level parser
        assert len(parsed) == 5


_REQUIRED = {"build": ["--a", "--n"], "seq": ["--a", "--horizon"],
             "zeck": ["--a", "--value"], "verify": [], "paths": ["--a", "--n"],
             "milestone": ["--a"], "conjecture": ["--n"], "frob": []}
_VALUE_FLAGS = ["--a", "--n", "--horizon", "--value", "--a-min", "--a-max", "--jobs",
                "--format"]
_SWITCHES = ["--psi", "--oracle-psi", "--check-closed-form", "--help", "--bogus"]
# mostly well-formed sizes <= 60, so that many argvs get past the parser
_VALUES = (st.integers(1, 60).map(str) | st.integers(-2, 60).map(str)
           | st.sampled_from(["", "x", "1.5", "-", "0x3", " 4", "--a", "1e2"]))
# sizes past 2**60 are refused before any allocation; never for an order,
# where verify would loop over the grid for ever
_SIZES = _VALUES | st.integers(2**61, 2**64).map(str)
_VALUES_OF = {"--n": _SIZES, "--horizon": _SIZES,
              "--format": st.sampled_from(["dot", "json", "csv", "svg"])}


@st.composite
def _argvs(draw, out_dir):
    command = draw(st.sampled_from(sorted(_REQUIRED)))
    argv = [command]
    for flag in _REQUIRED[command]:
        argv += [flag, draw(_VALUES_OF.get(flag, _VALUES))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 2))
        if kind == 0:
            argv.append(draw(st.sampled_from(_SWITCHES)))
        elif kind == 1:
            name = draw(st.sampled_from(["x.txt", "missing/x.txt"]))
            argv += ["--out", str(out_dir / name)]
        else:
            flag = draw(st.sampled_from(_VALUE_FLAGS))
            argv += [flag, draw(_VALUES_OF.get(flag, _VALUES))]
    return argv


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_argv_ends_in_a_documented_exit_code(capsys, tmp_path, data):
    argv = data.draw(_argvs(tmp_path))
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
