"""End-to-end tests of the command line interface.

Everything runs in-process through main(argv) so the tests can capture
stdout and assert on exit codes directly.
"""

import hashlib
import io
import json

import pytest

from crsing import cr_equation_matrix, load_manifold
from crsing.cli import main

RANK1 = '{"n": 2, "A": [["0", "1"], ["0", "0"]]}'
RANK2 = '{"n": 2, "B": [["1", "0"], ["0", "1"]]}'
CUBIC = '{"n": 2, "A": [["0", "1"], ["0", "0"]], "E": "zb2^3"}'
FLAT = '{"n": 2, "A": [["1", "0"], ["0", "1"]]}'
R1N3 = '{"n": 3, "A": [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]]}'
# rank one through B = u u^t with u = (1, i, 2), and through A = a b^t
R1N3_B = '{"n": 3, "B": [["1", "i", "2"], ["i", "-1", "2i"], ["2", "2i", "4"]]}'
R1N3_A = '{"n": 3, "A": [["1", "0", "3"], ["1/2", "0", "3/2"], ["-i", "0", "-3i"]]}'
N3B = (
    '{"n": 3, "A": [["1", "0", "0"], ["0", "0", "0"], ["0", "0", "0"]],'
    ' "B": [["0", "i", "0"], ["i", "0", "0"], ["0", "0", "2"]]}'
)


@pytest.fixture
def manifold_file(tmp_path):
    def write(text, name="m.json"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, _ = run(capsys, argv[:1] + ["--json"] + argv[1:])
    return code, json.loads(out)


class TestExitCodes:
    def test_rank_ok(self, capsys, manifold_file):
        code, out, _ = run(capsys, ["rank", "--manifold", manifold_file(RANK1)])
        assert code == 0
        assert "rank: 1" in out
        assert "extension theorem applies: no" in out

    def test_rank_two(self, capsys, manifold_file):
        code, out, _ = run(capsys, ["rank", "--manifold", manifold_file(RANK2)])
        assert code == 0
        assert "rank: 2" in out
        assert "extension theorem applies: yes" in out

    def test_extend_failure_is_negative(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            ["extend", "--manifold", manifold_file(RANK1), "--f", "zb1"],
        )
        assert code == 1
        assert "no extension" in out
        assert "certificate: v = (1, 0)" in out

    def test_extend_success(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            ["extend", "--manifold", manifold_file(RANK2), "--f", "zb1^2 + zb2^2"],
        )
        assert code == 0
        assert "F = w" in out
        assert "unique: yes" in out

    def test_check_cr_holds(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            ["check-cr", "--manifold", manifold_file(RANK1), "--f", "z1*zb1"],
        )
        assert code == 0
        assert "CR: yes" in out

    def test_check_cr_fails(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            ["check-cr", "--manifold", manifold_file(RANK1), "--f", "zb2"],
        )
        assert code == 1
        assert "CR: no" in out
        assert "L(1,2) f" in out

    def test_formal_extend_recovers_graph(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            [
                "formal-extend",
                "--manifold",
                manifold_file(CUBIC),
                "--f",
                "zb1*z2 + zb2^3",
            ],
        )
        assert code == 0
        assert "F = w" in out
        assert "residual order: none (exact)" in out

    def test_formal_extend_not_cr(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            ["formal-extend", "--manifold", manifold_file(CUBIC), "--f", "zb1"],
        )
        assert code == 1
        assert "failed:" in out

    def test_counterexample_found(self, capsys, manifold_file):
        code, out, _ = run(
            capsys, ["counterexample", "--manifold", manifold_file(RANK1)]
        )
        assert code == 0
        assert "f = zb1" in out

    def test_counterexample_absent(self, capsys, manifold_file):
        code, out, _ = run(
            capsys, ["counterexample", "--manifold", manifold_file(RANK2)]
        )
        assert code == 1
        assert "no linear counterexample" in out

    def test_cr_image_applicable(self, capsys, manifold_file):
        code, out, _ = run(capsys, ["cr-image", "--manifold", manifold_file(RANK1)])
        assert code == 0
        assert "form2" in out

    def test_cr_image_not_applicable(self, capsys, manifold_file):
        code, out, _ = run(capsys, ["cr-image", "--manifold", manifold_file(RANK2)])
        assert code == 1
        assert "not applicable" in out

    def test_classify(self, capsys, manifold_file):
        code, out, _ = run(capsys, ["classify", "--manifold", manifold_file(RANK1)])
        assert code == 0
        assert "class:" in out

    def test_flatten_check_passes(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            [
                "flatten-check",
                "--manifold",
                manifold_file(FLAT),
                "--g",
                "z1*zb1 + z2*zb2",
            ],
        )
        assert code == 0
        assert "flattening function F = w" in out

    def test_flatten_check_accepts_cr_through_order(self, capsys, manifold_file):
        # L g = 5 z1^5 z2 zb1^4 vanishes through order 8, so g is a first
        # integral to that order and flattens with F = w
        path = manifold_file(FLAT)
        g = "z1*zb1 + z2*zb2 + z1^5*zb1^5"
        argv = ["flatten-check", "--manifold", path, "--g", g, "--order", "8"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "CR to order 8: yes" in out
        assert "flattening function F = w" in out
        assert "residual order: 10" in out
        code, payload = run_json(
            capsys, ["formal-extend", "--manifold", path, "--f", g, "--order", "8"]
        )
        assert code == 0
        assert payload["result"]["F"] == "w"
        assert payload["result"]["residual_order"] == 10

    def test_flatten_check_rejects_non_integral(self, capsys, manifold_file):
        code, out, _ = run(
            capsys,
            ["flatten-check", "--manifold", manifold_file(FLAT), "--g", "z1"],
        )
        assert code == 1
        assert "not a first integral" in out


class TestInputErrors:
    def test_bad_json_document(self, capsys, manifold_file):
        code, _, err = run(capsys, ["rank", "--manifold", manifold_file("{not json")])
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["rank", "--manifold", str(tmp_path / "no.json")])
        assert code == 2
        assert "cannot read" in err

    def test_bad_polynomial(self, capsys, manifold_file):
        code, _, err = run(
            capsys,
            ["check-cr", "--manifold", manifold_file(RANK1), "--f", "z1 +"],
        )
        assert code == 2
        assert "error:" in err

    def test_unknown_variable(self, capsys, manifold_file):
        code, _, err = run(
            capsys,
            ["check-cr", "--manifold", manifold_file(RANK1), "--f", "zb3"],
        )
        assert code == 2
        assert "error:" in err

    def test_asymmetric_matrix(self, capsys, manifold_file):
        text = '{"n": 2, "B": [["0", "1"], ["0", "0"]]}'
        code, _, err = run(capsys, ["rank", "--manifold", manifold_file(text)])
        assert code == 2
        assert "symmetric" in err

    def test_ode_case_c_needs_xi(self, capsys):
        code, _, err = run(capsys, ["ode", "--case", "c", "--q", "1", "--t", "1"])
        assert code == 2
        assert "--xi" in err

    def test_degree_zero_basis(self, capsys, manifold_file):
        code, _, err = run(
            capsys,
            ["cr-basis", "--manifold", manifold_file(RANK1), "--degree", "0"],
        )
        assert code == 2


    @pytest.mark.parametrize("order", ["-1", "-3"])
    @pytest.mark.parametrize(
        "spec, g",
        [(FLAT, "z1"), (FLAT, "z1*zb1 + z2*zb2"), (RANK1, "z1*zb2")],
        ids=["not-integral", "integral", "rank-one"],
    )
    def test_flatten_check_negative_order(self, capsys, manifold_file, spec, g, order):
        # rejected before any test of g, whether or not g is a first integral
        # and whatever the rank
        path = manifold_file(spec)
        for json_flag in ([], ["--json"]):
            argv = ["flatten-check"] + json_flag + ["--manifold", path]
            code, out, err = run(capsys, argv + ["--g", g, "--order", order])
            assert code == 2
            assert out == ""
            assert err == "error: truncation order must be nonnegative\n"


class TestInternalErrors:
    def test_failed_invariant_exits_3_without_traceback(
        self, capsys, manifold_file, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise RuntimeError("matching solution left a nonzero residual")

        monkeypatch.setattr("crsing.cli.extend_polynomial", broken)
        for flags in ([], ["--json"]):
            code, out, err = run(
                capsys,
                ["extend"] + flags + ["--manifold", manifold_file(RANK2), "--f", "z1"],
            )
            assert code == 3
            assert out == ""
            assert err == "internal error: matching solution left a nonzero residual\n"


class TestStdin:
    def test_manifold_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(RANK1))
        code, out, _ = run(capsys, ["rank", "--manifold", "-"])
        assert code == 0
        assert "rank: 1" in out


class TestJsonOutput:
    def test_payload_schema(self, capsys, manifold_file):
        path = manifold_file(RANK1)
        code, payload = run_json(capsys, ["rank", "--manifold", path])
        assert code == 0
        assert sorted(payload) == ["certificate", "command", "ok", "result"]
        assert payload["command"] == "rank"
        assert payload["ok"] is True
        assert payload["result"]["rank"] == 1
        assert payload["result"]["extension_theorem_applies"] is False
        assert payload["certificate"]["stacked"] == [
            ["0", "0"],
            ["1", "0"],
            ["0", "0"],
            ["0", "0"],
        ]

    def test_byte_identical_reruns(self, capsys, manifold_file):
        path = manifold_file(CUBIC)
        argv = [
            "formal-extend",
            "--json",
            "--manifold",
            path,
            "--f",
            "zb1*z2 + zb2^3",
        ]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_extend_counterexample_certificate(self, capsys, manifold_file):
        code, payload = run_json(
            capsys,
            ["extend", "--manifold", manifold_file(RANK1), "--f", "zb1"],
        )
        assert code == 1
        assert payload["ok"] is False
        assert payload["certificate"]["counterexample"] == ["1", "0"]
        assert payload["result"]["degree"] == 1

    def test_formal_extend_fields(self, capsys, manifold_file):
        code, payload = run_json(
            capsys,
            [
                "formal-extend",
                "--manifold",
                manifold_file(CUBIC),
                "--f",
                "zb1*z2 + zb2^3",
            ],
        )
        assert code == 0
        res = payload["result"]
        assert res["F"] == "w"
        assert res["residual_order"] is None
        assert res["certified"] is True
        assert res["unique"] is True
        assert payload["certificate"]["residual"] == "0"

    def test_check_cr_failure_certificate(self, capsys, manifold_file):
        code, payload = run_json(
            capsys,
            ["check-cr", "--manifold", manifold_file(RANK1), "--f", "zb2"],
        )
        assert code == 1
        failures = payload["certificate"]["failures"]
        assert failures == [{"pair": [1, 2], "image": "-z2"}]


class TestCrBasis:
    def test_dimension_and_basis(self, capsys, manifold_file):
        code, payload = run_json(
            capsys,
            ["cr-basis", "--manifold", manifold_file(RANK1), "--degree", "1"],
        )
        assert code == 0
        res = payload["result"]
        assert res["dimension"] == 3
        assert res["matrix_shape"] == [4, 4]
        assert sorted(res["basis"]) == ["z1", "z2", "zb1"]

    def test_dump_matrix_creates_csv(self, capsys, manifold_file, tmp_path):
        out_path = tmp_path / "matrix.csv"
        code, out, _ = run(
            capsys,
            [
                "cr-basis",
                "--manifold",
                manifold_file(RANK1),
                "--degree",
                "1",
                "--dump-matrix",
                str(out_path),
            ],
        )
        assert code == 0
        assert "matrix written to" in out
        # Q = zb1 z2, so L(1,2) = -z2 d/dzb2 and only zb2 maps anywhere
        assert out_path.read_text(encoding="utf-8") == (
            "row,zb2,zb1,z2,z1\n"
            '"L(1,2):zb2",0,0,0,0\n'
            '"L(1,2):zb1",0,0,0,0\n'
            '"L(1,2):z2",-1,0,0,0\n'
            '"L(1,2):z1",0,0,0,0\n'
        )

    @pytest.mark.parametrize("spec", [RANK1, RANK2])
    @pytest.mark.parametrize("degree", [2, 3])
    def test_matrix_rank_matches_independent_build(
        self, capsys, manifold_file, spec, degree
    ):
        code, payload = run_json(
            capsys,
            ["cr-basis", "--manifold", manifold_file(spec), "--degree", str(degree)],
        )
        assert code == 0
        mat = cr_equation_matrix(load_manifold(spec).quadric, degree)
        res = payload["result"]
        assert res["matrix_rank"] == mat.rank()
        assert res["matrix_shape"] == [len(mat.rows), len(mat.columns)]
        assert res["dimension"] == len(mat.columns) - mat.rank()


# dense quadrics at the sizes (n, d) = (3, 6) and (4, 4); the exact Fraction
# elimination takes 10-30 s on each
DENSE_N3 = (
    '{"n": 3, "A": [["1", "i", "2"], ["-1", "1/2", "1+i"], ["3", "-i", "2"]],'
    ' "B": [["1", "2", "-i"], ["2", "i", "1"], ["-i", "1", "3"]],'
    ' "C": [["2", "-1", "i"], ["-1", "1/3", "1"], ["i", "1", "-2"]]}'
)
DENSE_N4 = (
    '{"n": 4, "A": [["1", "i", "2", "-1"], ["-1", "1/2", "1+i", "3"],'
    ' ["3", "-i", "2", "1"], ["1", "2", "-2i", "1/2"]],'
    ' "B": [["1", "2", "-i", "1"], ["2", "i", "1", "-1"], ["-i", "1", "3", "2"],'
    ' ["1", "-1", "2", "i"]],'
    ' "C": [["2", "-1", "i", "1"], ["-1", "1/3", "1", "2"], ["i", "1", "-2", "1"],'
    ' ["1", "2", "1", "-i"]]}'
)


class TestGoldenLargeBases:
    """sha256 of cr-basis --json stdout, recorded with the exact kernel."""

    @pytest.mark.parametrize(
        "spec, degree, digest",
        [
            (
                DENSE_N3,
                6,
                "284ebb7899cd1a67dd9226024dd09049a45fe6fbbbba3551be218d8ecc8c4744",
            ),
            (
                DENSE_N4,
                4,
                "32a5b61cf9af7bd04d52b0ba53ceb845281af09cd506f40b5aa2b58f2d6ca2b6",
            ),
        ],
        ids=["n3-d6", "n4-d4"],
    )
    def test_dense_basis_bytes(self, capsys, manifold_file, spec, degree, digest):
        argv = ["cr-basis", "--json", "--manifold", manifold_file(spec)]
        code, out, err = run(capsys, argv + ["--degree", str(degree)])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


# cr-basis --degree 2 --dump-matrix on N3B, recorded before the CR matrix
# was assembled by exponent arithmetic
N3B_D2_CSV = (
    'row,zb3^2,zb2*zb3,zb2^2,zb1*zb3,zb1*zb2,zb1^2,z3*zb3,zb2*z3,zb1*z3,z2*zb3,z2*zb2,zb1*z2,z1*zb3,z1*zb2,z1*zb1,z3^2,z2*z3,z2^2,z1*z3,z1*z2,z1^2\n'
    '"L(1,2):zb3^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb2*zb3",0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb2^2",0,0,4i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb1*zb3",0,0,0,-2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb1*zb2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb1^2",0,0,0,0,0,-4i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z3*zb3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb2*z3",0,0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb1*z3",0,0,0,0,0,0,0,0,-2i,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z2*zb3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z2*zb2",0,0,0,0,0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):zb1*z2",0,0,0,0,0,0,0,0,0,0,0,-2i,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z1*zb3",0,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z1*zb2",0,0,-2,0,0,0,0,0,0,0,0,0,0,2i,0,0,0,0,0,0,0\n'
    '"L(1,2):z1*zb1",0,0,0,0,-1,0,0,0,0,0,0,0,0,0,-2i,0,0,0,0,0,0\n'
    '"L(1,2):z3^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z2*z3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z2^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z1*z3",0,0,0,0,0,0,0,-1,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z1*z2",0,0,0,0,0,0,0,0,0,0,-1,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,2):z1^2",0,0,0,0,0,0,0,0,0,0,0,0,0,-1,0,0,0,0,0,0,0\n'
    '"L(1,3):zb3^2",0,0,0,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb2*zb3",4i,0,0,0,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb2^2",0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb1*zb3",0,0,0,0,0,8,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb1*zb2",0,0,0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb1^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z3*zb3",0,0,0,0,0,0,0,0,4,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb2*z3",0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb1*z3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z2*zb3",0,0,0,0,0,0,0,0,0,0,0,4,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z2*zb2",0,0,0,0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):zb1*z2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z1*zb3",-2,0,0,0,0,0,0,0,0,0,0,0,0,0,4,0,0,0,0,0,0\n'
    '"L(1,3):z1*zb2",0,-1,0,0,0,0,0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z1*zb1",0,0,0,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z3^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z2*z3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z2^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z1*z3",0,0,0,0,0,0,-1,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z1*z2",0,0,0,0,0,0,0,0,0,-1,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(1,3):z1^2",0,0,0,0,0,0,0,0,0,0,0,0,-1,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb3^2",0,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb2*zb3",0,0,8,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb2^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb1*zb3",4i,0,0,0,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb1*zb2",0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb1^2",0,0,0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z3*zb3",0,0,0,0,0,0,0,4,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb2*z3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb1*z3",0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z2*zb3",0,0,0,0,0,0,0,0,0,0,4,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z2*zb2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):zb1*z2",0,0,0,0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z1*zb3",0,0,0,0,0,0,0,0,0,0,0,0,0,4,0,0,0,0,0,0,0\n'
    '"L(2,3):z1*zb2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z1*zb1",0,0,0,0,0,0,0,0,0,0,0,0,2i,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z3^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z2*z3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z2^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z1*z3",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z1*z2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
    '"L(2,3):z1^2",0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0\n'
)


class TestGoldenImages:
    """Exact CLI bytes of CR images and CR matrices on n = 3 with B != 0 and
    on n = 2 with E != 0."""

    N3B_F = "zb1*z3 - i*zb2^2 + zb3^3"
    N3B_FAILURES = [
        {"pair": [1, 2], "image": "2i*z1*zb2 - 2i*zb1*z3 + 4*zb2^2"},
        {"pair": [1, 3], "image": "4*z3*zb3 - 3*z1*zb3^2 + 6i*zb2*zb3^2"},
        {"pair": [2, 3], "image": "-8i*zb2*zb3 + 6i*zb1*zb3^2"},
    ]
    CUBIC_F = "z1^2*zb2 - 3*zb1*zb2*z2 + i*zb1^3"
    CUBIC_FAILURES = [
        {"pair": [1, 2], "image": "-z1^2*z2 + 3*zb1*z2^2 - 9*z2*zb2^3 + 9i*zb1^2*zb2^2"}
    ]

    @pytest.mark.parametrize(
        "spec, f, failures",
        [(N3B, N3B_F, N3B_FAILURES), (CUBIC, CUBIC_F, CUBIC_FAILURES)],
    )
    def test_check_cr_failure_images(self, capsys, manifold_file, spec, f, failures):
        path = manifold_file(spec)
        code, out, err = run(capsys, ["check-cr", "--manifold", path, "--f", f])
        assert code == 1 and err == ""
        assert out == "CR: no\n" + "".join(
            "  L(%d,%d) f = %s\n" % (tuple(x["pair"]) + (x["image"],)) for x in failures
        )
        code, payload = run_json(capsys, ["check-cr", "--manifold", path, "--f", f])
        assert code == 1
        assert payload == {
            "certificate": {"failures": failures},
            "command": "check-cr",
            "ok": False,
            "result": {"holds": False, "vacuous": False},
        }

    def test_n3_dump_matrix(self, capsys, manifold_file, tmp_path):
        out_path = tmp_path / "matrix.csv"
        argv = ["cr-basis", "--manifold", manifold_file(N3B), "--degree", "2"]
        code, out, _ = run(capsys, argv + ["--dump-matrix", str(out_path)])
        assert code == 0
        assert out == (
            "degree 2 CR space has dimension 7\n"
            "  z1*zb1 - 2i*zb1*zb2 + 2*zb3^2\n"
            "  z3^2\n  z2*z3\n  z2^2\n  z1*z3\n  z1*z2\n  z1^2\n"
            "matrix written to %s\n" % out_path
        )
        assert out_path.read_text(encoding="utf-8") == "".join(N3B_D2_CSV)

    def test_cubic_dump_matrix(self, capsys, manifold_file, tmp_path):
        # the CR matrix sees only the quadric part zb1*z2 of rho
        out_path = tmp_path / "matrix.csv"
        argv = ["cr-basis", "--manifold", manifold_file(CUBIC), "--degree", "2"]
        code, _, _ = run(capsys, argv + ["--dump-matrix", str(out_path)])
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == (
            "row,zb2^2,zb1*zb2,zb1^2,z2*zb2,zb1*z2,z1*zb2,z1*zb1,z2^2,z1*z2,z1^2\n"
            '"L(1,2):zb2^2",0,0,0,0,0,0,0,0,0,0\n'
            '"L(1,2):zb1*zb2",0,0,0,0,0,0,0,0,0,0\n'
            '"L(1,2):zb1^2",0,0,0,0,0,0,0,0,0,0\n'
            '"L(1,2):z2*zb2",-2,0,0,0,0,0,0,0,0,0\n'
            '"L(1,2):zb1*z2",0,-1,0,0,0,0,0,0,0,0\n'
            '"L(1,2):z1*zb2",0,0,0,0,0,0,0,0,0,0\n'
            '"L(1,2):z1*zb1",0,0,0,0,0,0,0,0,0,0\n'
            '"L(1,2):z2^2",0,0,0,-1,0,0,0,0,0,0\n'
            '"L(1,2):z1*z2",0,0,0,0,0,-1,0,0,0,0\n'
            '"L(1,2):z1^2",0,0,0,0,0,0,0,0,0,0\n'
        )


def _json_bytes(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestGoldenAnswers:
    """Exact CLI bytes of negative extension answers, n = 3 counterexamples
    and brute-force ODE checks, plain and with --json."""

    @pytest.mark.parametrize(
        "spec, f, text, result, certificate",
        [
            (
                RANK1,
                "i*zb1 - zb2",
                "not CR: degree-1 part of f fails the CR equations\n",
                {"degree": 1, "reason": "degree-1 part of f fails the CR equations"},
                None,
            ),
            (
                RANK1,
                "z1 + zb1*z2 + z1*zb1",
                "no extension: no holomorphic polynomial matches f at degree 2\n"
                "certificate: v = (1, 0)\n",
                {"degree": 2, "reason": "no holomorphic polynomial matches f at degree 2"},
                {"counterexample": ["1", "0"]},
            ),
            (
                R1N3,
                "z1 + zb3^2",
                "not CR: degree-2 part of f fails the CR equations\n",
                {"degree": 2, "reason": "degree-2 part of f fails the CR equations"},
                None,
            ),
            (
                R1N3,
                "z2 + zb1^2",
                "no extension: no holomorphic polynomial matches f at degree 2\n"
                "certificate: v = (1, 0, 0)\n",
                {"degree": 2, "reason": "no holomorphic polynomial matches f at degree 2"},
                {"counterexample": ["1", "0", "0"]},
            ),
        ],
    )
    def test_extend_refusals(
        self, capsys, manifold_file, spec, f, text, result, certificate
    ):
        argv = ["extend", "--manifold", manifold_file(spec), "--f", f]
        assert run(capsys, argv) == (1, text, "")
        assert run(capsys, argv[:1] + ["--json"] + argv[1:]) == (
            1,
            _json_bytes(
                {
                    "certificate": certificate,
                    "command": "extend",
                    "ok": False,
                    "result": result,
                }
            ),
            "",
        )

    @pytest.mark.parametrize(
        "spec, f, vector",
        [
            (R1N3_B, "1/2*zb1 - 1/2i*zb2 + zb3", ["1/2", "-1/2i", "1"]),
            (R1N3_A, "i*zb1 + 1/2i*zb2 + zb3", ["i", "1/2i", "1"]),
        ],
    )
    def test_n3_counterexamples(self, capsys, manifold_file, spec, f, vector):
        argv = ["counterexample", "--manifold", manifold_file(spec)]
        assert run(capsys, argv) == (
            0,
            "counterexample: f = %s is CR but has no extension\n" % f,
            "",
        )
        assert run(capsys, argv[:1] + ["--json"] + argv[1:]) == (
            0,
            _json_bytes(
                {
                    "certificate": None,
                    "command": "counterexample",
                    "ok": True,
                    "result": {"cr_function": f, "vector": vector},
                }
            ),
            "",
        )

    @pytest.mark.parametrize(
        "case, coeffs, witness",
        [
            ("a", ["--p", "2", "--r", "1", "--s", "1"], "1 + 2*eta + eta^2"),
            (
                "b",
                ["--p", "0", "--q", "2", "--r", "-2", "--s", "0", "--t", "1"],
                "-2 + eta^2",
            ),
            ("c", ["--p", "-2", "--q", "2", "--t", "1", "--xi", "1"], "1 - 2*eta + eta^2"),
        ],
    )
    def test_ode_brute_bound_12(self, capsys, case, coeffs, witness):
        argv = ["ode", "--case", case] + coeffs + ["--brute-bound", "12"]
        assert run(capsys, argv) == (
            0,
            "verdict: nonconstant_poly\n"
            "witness: zeta = %s\n"
            "brute force (degree <= 12): nonconstant_poly\n" % witness,
            "",
        )
        brute = {
            "agrees": True,
            "bound": 12,
            "verdict": "nonconstant_poly",
            "witness": witness,
        }
        assert run(capsys, argv[:1] + ["--json"] + argv[1:]) == (
            0,
            _json_bytes(
                {
                    "certificate": None,
                    "command": "ode",
                    "ok": True,
                    "result": {
                        "brute_force": brute,
                        "case": case,
                        "verdict": "nonconstant_poly",
                        "witness": witness,
                    },
                }
            ),
            "",
        )


class TestOde:
    def test_case_a_witness(self, capsys):
        code, payload = run_json(
            capsys,
            ["ode", "--case", "a", "--p", "2", "--r", "1", "--s", "1"],
        )
        assert code == 0
        assert payload["result"]["verdict"] == "nonconstant_poly"
        assert payload["result"]["witness"] == "1 + 2*eta + eta^2"

    def test_case_a_negative_power(self, capsys):
        code, payload = run_json(
            capsys,
            ["ode", "--case", "a", "--p", "-1", "--r", "1", "--s", "2"],
        )
        assert code == 0
        assert payload["result"]["verdict"] == "no_nonzero"
        assert payload["result"]["witness"] is None

    def test_brute_bound_agreement(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "ode",
                "--case",
                "a",
                "--p",
                "2",
                "--r",
                "1",
                "--s",
                "1",
                "--brute-bound",
                "6",
            ],
        )
        assert code == 0
        brute = payload["result"]["brute_force"]
        assert brute["agrees"] is True
        assert brute["verdict"] == "nonconstant_poly"

    def test_case_c(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "ode",
                "--case",
                "c",
                "--p",
                "-2",
                "--q",
                "2",
                "--t",
                "1",
                "--xi",
                "1",
            ],
        )
        assert code == 0
        assert payload["result"]["verdict"] == "nonconstant_poly"
        assert payload["result"]["witness"] == "1 - 2*eta + eta^2"


class TestVerify:
    def test_single_fast_suite(self, capsys):
        code, out, _ = run(capsys, ["verify", "--suite", "parametrization"])
        assert code == 0
        assert "suite parametrization" in out
        assert "FAIL" not in out

    def test_overrides_apply(self, capsys):
        code, payload = run_json(
            capsys,
            [
                "verify",
                "--suite",
                "rank-formula",
                "--samples",
                "3",
                "--dmax",
                "3",
                "--seed",
                "7",
            ],
        )
        assert code == 0
        assert payload["ok"] is True
        suites = payload["result"]
        assert len(suites) == 1
        assert suites[0]["suite"] == "rank-formula"
        assert all(row["ok"] for row in suites[0]["rows"])

    @pytest.mark.parametrize(
        "suite, flag, value",
        [
            ("rank-formula", "--samples", "0"),
            ("uniqueness", "--samples", "-2"),
            ("block-ranks", "--samples", "0"),
            ("rank-formula", "--dmax", "0"),
            ("ode", "--bound", "-1"),
            ("examples", "--order", "-1"),
        ],
    )
    def test_out_of_range_parameters_rejected(
        self, capsys, monkeypatch, suite, flag, value
    ):
        def no_suite(*args, **kwargs):
            raise AssertionError("a suite ran")

        monkeypatch.setattr("crsing.cli.run_suite", no_suite)
        for json_flag in ([], ["--json"]):
            code, out, err = run(
                capsys, ["verify"] + json_flag + ["--suite", suite, flag, value]
            )
            assert code == 2
            assert out == ""
            assert err.startswith("error: %s must be at least" % flag)


RANK0 = '{"n": 2}'
RANK0_E = '{"n": 2, "E": "zb1^3"}'
RANK_TOO_LOW = "first integral checks assume stacked rank at least two"


class TestGoldenDecisions:
    """Exact CLI bytes of ODE refusals and witnesses, brute-force bounds, and
    formal-extend and flatten-check below stacked rank two, plain and with
    --json."""

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            (["--case", "a", "--p", "1", "--s", "0"], "case a requires s != 0"),
            (
                ["--case", "b", "--p", "1", "--q", "1", "--r", "1", "--s", "1"],
                "case b requires t != 0",
            ),
            (
                ["--case", "b", "--p", "1", "--q", "1", "--r", "1", "--s", "-2", "--t", "1"],
                "case b requires distinct roots; use case c",
            ),
            (
                ["--case", "c", "--p", "1", "--q", "1", "--t", "1"],
                "case c needs --xi (the double root)",
            ),
        ],
    )
    def test_ode_input_errors(self, capsys, coeffs, message):
        for argv in (["ode"] + coeffs, ["ode", "--json"] + coeffs):
            assert run(capsys, argv) == (2, "", "error: %s\n" % message)

    @pytest.mark.parametrize(
        "coeffs, witness, brute",
        [
            # R/t = eta^2 - 3 has irrational roots; zeta = (R/t)^2
            (["--case", "b", "--q", "8", "--r", "-6", "--t", "2"], "9 - 6*eta^2 + eta^4", None),
            (
                ["--case", "b", "--q", "8", "--r", "-6", "--t", "2", "--brute-bound", "0"],
                "9 - 6*eta^2 + eta^4",
                (0, "no_nonzero", None),
            ),
            (
                ["--case", "b", "--q", "8", "--r", "-6", "--t", "2", "--brute-bound", "3"],
                "9 - 6*eta^2 + eta^4",
                (3, "no_nonzero", None),
            ),
            (
                ["--case", "a", "--p", "2", "--r", "1", "--s", "1", "--brute-bound", "0"],
                "1 + 2*eta + eta^2",
                (0, "no_nonzero", None),
            ),
            (
                ["--case", "a", "--p", "2", "--r", "1", "--s", "1", "--brute-bound", "3"],
                "1 + 2*eta + eta^2",
                (3, "nonconstant_poly", "1 + 2*eta + eta^2"),
            ),
            (
                ["--case", "c", "--q", "1", "--t", "1", "--xi", "0", "--brute-bound", "3"],
                "eta",
                (3, "nonconstant_poly", "eta"),
            ),
        ],
    )
    def test_ode_witnesses_and_brute_bounds(self, capsys, coeffs, witness, brute):
        text = "verdict: nonconstant_poly\nwitness: zeta = %s\n" % witness
        result = {"case": coeffs[1], "verdict": "nonconstant_poly", "witness": witness}
        if brute is not None:
            bound, verdict, brute_witness = brute
            agrees = verdict == "nonconstant_poly"
            text += "brute force (degree <= %d): %s%s\n" % (
                bound,
                verdict,
                "" if agrees else "  DISAGREES",
            )
            result["brute_force"] = {
                "agrees": agrees,
                "bound": bound,
                "verdict": verdict,
                "witness": brute_witness,
            }
        assert run(capsys, ["ode"] + coeffs) == (0, text, "")
        assert run(capsys, ["ode", "--json"] + coeffs) == (
            0,
            _json_bytes(
                {"certificate": None, "command": "ode", "ok": True, "result": result}
            ),
            "",
        )

    @pytest.mark.parametrize(
        "spec, code, text, result, certificate",
        [
            (
                RANK0,
                1,
                "failed: Q has no zbar part; CR gives no equations here\n",
                {"degree": None, "reason": "Q has no zbar part; CR gives no equations here"},
                None,
            ),
            (
                RANK0_E,
                1,
                "failed: Q has no zbar part; CR gives no equations here\n",
                {"degree": None, "reason": "Q has no zbar part; CR gives no equations here"},
                None,
            ),
            (
                RANK1,
                0,
                "F = w + z1^2\nresidual order: none (exact)\nunique: yes\n",
                {
                    "F": "w + z1^2",
                    "certified": True,
                    "order": 4,
                    "residual_order": None,
                    "unique": True,
                },
                {"residual": "0"},
            ),
            (
                CUBIC,
                1,
                "failed: f fails the CR equations on the manifold at degree 2\n",
                {
                    "degree": 2,
                    "reason": "f fails the CR equations on the manifold at degree 2",
                },
                None,
            ),
        ],
    )
    def test_formal_extend_below_rank_two(
        self, capsys, manifold_file, spec, code, text, result, certificate
    ):
        args = ["--manifold", manifold_file(spec), "--f", "zb1*z2 + z1^2", "--order", "4"]
        assert run(capsys, ["formal-extend"] + args) == (code, text, "")
        assert run(capsys, ["formal-extend", "--json"] + args) == (
            code,
            _json_bytes(
                {
                    "certificate": certificate,
                    "command": "formal-extend",
                    "ok": code == 0,
                    "result": result,
                }
            ),
            "",
        )

    @pytest.mark.parametrize("spec", [RANK0, RANK0_E, RANK1, CUBIC])
    def test_flatten_check_below_rank_two(self, capsys, manifold_file, spec):
        args = ["--manifold", manifold_file(spec), "--g", "z1*zb1 + z2*zb2", "--order", "4"]
        assert run(capsys, ["flatten-check"] + args) == (
            1,
            "failed: %s\n" % RANK_TOO_LOW,
            "",
        )
        assert run(capsys, ["flatten-check", "--json"] + args) == (
            1,
            _json_bytes(
                {
                    "certificate": None,
                    "command": "flatten-check",
                    "ok": False,
                    "result": {"reason": RANK_TOO_LOW},
                }
            ),
            "",
        )


class TestDashValues:
    """A value that starts with '-' may follow its option after a space, with
    the same bytes and exit code as --opt=value."""

    @pytest.mark.parametrize(
        "argv, code, text",
        [
            (
                ["ode", "--case", "c", "--p", "-3i", "--q", "3", "--t", "1", "--xi", "i"],
                0,
                "verdict: nonconstant_poly\nwitness: zeta = i - 3*eta - 3i*eta^2 + eta^3\n",
            ),
            (["ode", "--case", "a", "--p", "-1/2", "--s", "1"], 0, "verdict: no_nonzero\n"),
            (
                ["ode", "--case", "c", "--p", "3", "--q", "3", "--t", "-1/2", "--xi", "-i"],
                0,
                "verdict: no_nonzero\n",
            ),
            (
                ["ode", "--case", "b", "--p", "-i", "--q", "-2", "--r", "-1/2", "--s", "-i", "--t", "1"],
                0,
                "verdict: no_nonzero\n",
            ),
            (
                ["extend", "--manifold", RANK1, "--f", "-z1"],
                0,
                "F = -z1\nunique: yes\n",
            ),
            (
                ["extend", "--manifold", RANK1, "--f", "-zb1"],
                1,
                "no extension: no holomorphic polynomial matches f at degree 1\n"
                "certificate: v = (1, 0)\n",
            ),
            (["check-cr", "--manifold", RANK1, "--f", "-zb1"], 0, "CR: yes\n"),
            (
                ["flatten-check", "--manifold", FLAT, "--g", "-z1*zb1"],
                1,
                "real-valued: yes\nCR to order 8: no\nquadratic part is alpha*Q: no\n"
                "not a first integral\n",
            ),
        ],
    )
    def test_space_form_matches_equals_form(
        self, capsys, manifold_file, argv, code, text
    ):
        argv = [manifold_file(a) if a.startswith("{") else a for a in argv]
        joined = []
        for a in argv:
            if a.startswith("-") and not a.startswith("--"):
                joined[-1] += "=" + a
            else:
                joined.append(a)
        assert run(capsys, argv) == (code, text, "")
        assert run(capsys, joined) == (code, text, "")
        plain_json = run(capsys, argv[:1] + ["--json"] + argv[1:])
        assert plain_json[0] == code
        assert plain_json == run(capsys, joined[:1] + ["--json"] + joined[1:])

    def test_option_is_not_a_value(self, capsys, manifold_file):
        path = manifold_file(RANK1)
        for argv in (
            ["extend", "--manifold", path, "--f", "--json"],
            ["extend", "--json", "--manifold", path, "--f", "--json"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "argument --f: expected one argument" in capsys.readouterr().err
