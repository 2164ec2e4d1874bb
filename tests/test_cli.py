"""Command line interface: exit codes, formats, round trips."""

import hashlib
import json
from fractions import Fraction

import pytest

from starspan import (
    embed,
    gen_random_metric,
    lambda_star_detailed,
    metric_to_json_text,
    metric_to_matrix_text,
    parse_metric,
)
from starspan.cli import main, rational_to_decimal_str


F = Fraction

TWO_POINT = "0 1\n1 0\n"
FOUR_CYCLE = "0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0\n"
BAD_TRIANGLE = "0 1 3\n1 0 1\n3 1 0\n"


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def two_point_file(tmp_path):
    p = tmp_path / "two.txt"
    p.write_text(TWO_POINT)
    return str(p)


class TestDecimalRendering:
    def test_twenty_significant_digits(self):
        assert rational_to_decimal_str(F(1, 3)) == "0.33333333333333333333"

    def test_short_exact_values(self):
        assert rational_to_decimal_str(F(2)) == "2"
        assert rational_to_decimal_str(F(1, 2)) == "0.5"
        assert rational_to_decimal_str(F(8, 5)) == "1.6"


class TestEmbed:
    def test_two_point_json(self, capsys, two_point_file):
        code, out, _ = run(capsys, "embed", two_point_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["lambda_star"]["exact"] == "1"
        assert doc["hub_edges"]["0"]["exact"] == "1/2"
        assert doc["hub_edges"]["0"]["decimal"] == "0.5"
        assert doc["input"]["sites"] == 2
        assert len(doc["input"]["sha256"]) == 64
        canon = metric_to_matrix_text(parse_metric(TWO_POINT))
        assert doc["input"]["sha256"] == hashlib.sha256(canon.encode()).hexdigest()

    def test_matches_library(self, capsys, two_point_file, tmp_path):
        out_path = tmp_path / "emb.json"
        code, _, _ = run(capsys, "embed", two_point_file, "-o", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        s = embed(parse_metric(TWO_POINT))
        assert F(doc["lambda_star"]["exact"]) == s.lambda_star
        for i, label in enumerate(s.labels):
            assert F(doc["hub_edges"][label]["exact"]) == s.hub_len[i]

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 1\n1\n")
        code, _, err = run(capsys, "embed", str(p))
        assert code == 2
        assert err.strip()

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "embed", "/nonexistent/metric.txt")
        assert code == 2
        assert err.strip()

    def test_non_utf8_input_exits_2(self, capsys, tmp_path, two_point_file):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe0 1\n1 0\n")
        for argv in (("embed", str(bad)), ("verify", two_point_file, str(bad))):
            code, _, err = run(capsys, *argv)
            assert code == 2
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ("embed", "{two}", "-o", "{two}/x"),
            ("embed", "{two}/x"),
            ("verify", "{two}", "{two}/x"),
        ],
        ids=["output-under-file", "metric-under-file", "star-under-file"],
    )
    def test_os_error_exits_2(self, capsys, two_point_file, argv):
        code, _, err = run(capsys, *(a.format(two=two_point_file) for a in argv))
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_metric_violation_exits_1_and_names_sites(self, capsys, tmp_path):
        p = tmp_path / "tri.txt"
        p.write_text(BAD_TRIANGLE)
        code, _, err = run(capsys, "embed", str(p))
        assert code == 1
        assert "triangle" in err
        assert "(0,1,2)" in err.replace(" ", "")

    def test_json_input_format(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"points": ["a", "b"], "distances": [[0, 2], [2, 0]]}')
        code, out, _ = run(capsys, "embed", str(p), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["hub_edges"]["a"]["exact"] == "1"


class TestLambda:
    def test_canonical_values(self, capsys, tmp_path):
        for name, text, want in (
            ("two", TWO_POINT, "1"),
            ("cyc", FOUR_CYCLE, "2"),
        ):
            p = tmp_path / f"{name}.txt"
            p.write_text(text)
            code, out, _ = run(capsys, "lambda", str(p))
            assert code == 0
            assert out.split()[0] == want

    def test_prints_fraction_and_decimal(self, capsys, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("0 8/5\n8/5 0\n")
        code, out, _ = run(capsys, "lambda", str(p))
        assert code == 0
        assert out.split() == ["1", "1"]  # dilation is scale-free


class TestVerify:
    def test_round_trip_embed_then_verify(self, capsys, tmp_path, two_point_file):
        star = tmp_path / "star.json"
        assert run(capsys, "embed", two_point_file, "-o", str(star))[0] == 0
        code, _, err = run(capsys, "verify", two_point_file, str(star))
        assert code == 0 and not err.strip()

    def test_round_trip_with_labels_matrix_format_cannot_carry(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"points": ["a b", "c", ""], '
                     '"distances": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}')
        star = tmp_path / "star.json"
        code, _, err = run(capsys, "embed", str(p), "--format", "json", "-o", str(star))
        assert code == 0 and not err.strip()
        doc = json.loads(star.read_text())
        canon = metric_to_json_text(parse_metric(p.read_text(), "json"))
        assert doc["input"]["sha256"] == hashlib.sha256(canon.encode()).hexdigest()
        code, _, err = run(capsys, "verify", str(p), str(star), "--format", "json")
        assert code == 0 and not err.strip()

    def test_domination_failure(self, capsys, tmp_path, two_point_file):
        star = tmp_path / "star.json"
        star.write_text('{"lambda_star": "1", "hub_edges": {"0": "0", "1": "0"}}')
        code, _, err = run(capsys, "verify", two_point_file, str(star))
        assert code == 1
        assert "constraint (2)" in err

    def test_dilation_failure(self, capsys, tmp_path, two_point_file):
        star = tmp_path / "star.json"
        star.write_text('{"lambda_star": "3/2", "hub_edges": {"0": "1", "1": "1"}}')
        code, _, err = run(capsys, "verify", two_point_file, str(star))
        assert code == 1
        assert "constraint (3)" in err

    def test_label_mismatch_is_a_parse_problem(self, capsys, tmp_path, two_point_file):
        star = tmp_path / "star.json"
        star.write_text('{"lambda_star": "1", "hub_edges": {"x": "1", "y": "1"}}')
        code, _, err = run(capsys, "verify", two_point_file, str(star))
        assert code == 2 and err.strip()


class TestGen:
    def test_byte_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(capsys, "gen", "6", "--seed", "9", "-o", str(a))[0] == 0
        assert run(capsys, "gen", "6", "--seed", "9", "-o", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_a_valid_metric(self, capsys, tmp_path):
        p = tmp_path / "m.txt"
        for model in ("shortest_path", "rounded_euclidean"):
            assert run(capsys, "gen", "7", "--seed", "3", "--model", model,
                       "-o", str(p))[0] == 0
            m = parse_metric(p.read_text())
            assert m.n == 7

    def test_json_output_feeds_embed(self, capsys, tmp_path):
        p = tmp_path / "m.json"
        assert run(capsys, "gen", "4", "--seed", "5", "--format", "json",
                   "-o", str(p))[0] == 0
        code, out, _ = run(capsys, "embed", str(p), "--format", "json")
        assert code == 0
        assert json.loads(out)["input"]["sites"] == 4

    def test_rejects_bad_size(self, capsys):
        assert run(capsys, "gen", "1")[0] == 1


class TestBench:
    def test_csv_shape_and_values(self, capsys, tmp_path):
        out_path = tmp_path / "bench.csv"
        code, _, err = run(capsys, "bench", "--sizes", "4,5", "--seeds", "1,2",
                           "-o", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == (
            "n,seed,model,wall_seconds,lambda_star,iterations,max_breakpoints,engine,jumps"
        )
        assert len(lines) == 5
        for row in lines[1:]:
            n, seed, model, _, lam, *counts = row.split(",")
            stats = lambda_star_detailed(gen_random_metric(int(n), int(seed), model))[1]
            assert counts == [
                str(getattr(stats, k)) for k in ("iterations", "max_breakpoints", "engine", "jumps")
            ]
            gen_path = tmp_path / f"g{n}_{seed}.txt"
            assert run(capsys, "gen", n, "--seed", seed, "--model", model,
                       "-o", str(gen_path))[0] == 0
            _, out, _ = run(capsys, "lambda", str(gen_path))
            assert out.split()[0] == lam  # bench agrees with the solver

    @pytest.mark.parametrize("flag", ["--sizes", "--seeds"])
    def test_bad_integer_list_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, "4,x"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestOracle:
    def test_exact_small(self, capsys, two_point_file):
        code, out, _ = run(capsys, "oracle", two_point_file)
        assert code == 0
        assert out.split()[0] == "1"

    def test_large_needs_tolerance(self, capsys, tmp_path):
        p = tmp_path / "m8.txt"
        assert run(capsys, "gen", "8", "--seed", "2", "-o", str(p))[0] == 0
        code, _, err = run(capsys, "oracle", str(p))
        assert code == 1
        assert "--tol" in err
        code, out, _ = run(capsys, "oracle", str(p), "--tol", "1/1000000")
        assert code == 0
        approx = F(out.split()[0])
        _, exact_out, _ = run(capsys, "lambda", str(p))
        assert abs(approx - F(exact_out.split()[0])) <= F(1, 10 ** 6)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
