import pytest

from jaco.cli import main
from jaco.graph import build
from jaco.paths import psi_oracle


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

    def test_io_failure(self, capsys):
        code, _, err = run(capsys, "build", "--a", "1", "--n", "3",
                           "--out", "/nonexistent-dir/x.dot")
        assert code == 3
        assert "cannot write" in err


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--a", "1", "--n", "3", "--bogus"])
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
        assert out.splitlines() == [
            "1 0", "2 1", "3 2", "4 3", "5 3", "6 4", "7 4", "8 4",
        ]

    def test_psi_recursion(self, capsys):
        code, out, _ = run(capsys, "paths", "--a", "1", "--n", "13", "--psi")
        assert code == 0
        assert out.splitlines()[8] == "9 5 5"

    def test_psi_requires_order_one(self, capsys):
        code, _, err = run(capsys, "paths", "--a", "2", "--n", "10", "--psi")
        assert code == 2
        assert "oracle-psi" in err

    def test_oracle_psi_any_order(self, capsys):
        code, out, _ = run(capsys, "paths", "--a", "2", "--n", "5", "--oracle-psi")
        assert code == 0
        assert all(len(line.split()) == 3 for line in out.splitlines())
        for a in (1, 2, 3):
            for n in (1, 2, 13, 300):
                code, out, _ = run(capsys, "paths", "--a", str(a), "--n", str(n),
                                   "--oracle-psi")
                assert code == 0
                printed = [int(line.split()[2]) for line in out.splitlines()]
                assert printed == list(psi_oracle(build(a, n))[1:])


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
