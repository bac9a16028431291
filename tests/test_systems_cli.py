import io
import json
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

jsonschema = pytest.importorskip("jsonschema")

from vfkit import cli, fields, liealg, membership, vectorfield
from vfkit.cli import MAX_LEN_CAP, WORDS_CAP, main
from vfkit.linalg import FLOW_REL_TOL, VALUE_REL_TOL
from vfkit.orbits import FIRST_WORDS, WordSampler
from vfkit.presets import PRESETS
from vfkit.systems import (
    GRID_POINTS_CAP,
    SystemParseError,
    UsageError,
    parse_grid,
    parse_point,
    parse_system,
    parse_target,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SHEAR = """\
system shear dim 2
# a comment line
field X1 = (1, 0)
field X2 = (0, x1)
"""

PARTIAL = """\
system partial dim 2
field X1 = (1, 0) on x1 < 1
field X2 = (0, 1) on x1 > -1
"""

HALF_PLANE = """\
system half-plane dim 2
field X1 = (1, 0) on x1 < 1/10
field X2 = (0, x1)
"""

ISOLATED = """\
system isolated dim 3
field X1 = (x1*x3, 1, 0)
field X2 = (0, 0, 1)
"""

STEP = """\
system step dim 1
field X1 = (1)
field X2 = (x1)
"""

VANISHING = """\
system vanishing-pair dim 2
field X1 = (x1^2+x2^2, 0)
field X2 = (0, x1^2+x2^2)
"""

FLAT = """\
system flat dim 2
field X1 = (1, 0)
field X2 = (0, bumpp(x1))
"""

CUBIC = """\
system cubic dim 2
field X1 = (1, 0)
field X2 = (0, x1^2*x2+x2^3)
"""


class TestSystemFormat:
    def test_parse_basic(self):
        sys_ = parse_system(SHEAR)
        assert sys_.name == "shear" and sys_.dim == 2
        assert [f.name for f in sys_.fields] == ["X1", "X2"]

    def test_domains(self):
        sys_ = parse_system(PARTIAL)
        x1, x2 = sys_.fields
        assert x1.domain.contains((0, 0)) and not x1.domain.contains((2, 0))
        assert x2.domain.contains((0, 0)) and not x2.domain.contains((-2, 0))

    def test_component_count_mismatch(self):
        with pytest.raises(SystemParseError) as err:
            parse_system("system s dim 2\nfield X = (x1)\n")
        assert "components" in str(err.value)

    def test_bad_expression_reports_line(self):
        with pytest.raises(SystemParseError) as err:
            parse_system("system s dim 1\nfield X = (x1 +)\n")
        assert "line 2" in str(err.value)

    def test_missing_header(self):
        with pytest.raises(SystemParseError):
            parse_system("field X = (x1)\n")

    def test_inequality_outside_dimension(self):
        with pytest.raises(SystemParseError):
            parse_system("system s dim 1\nfield X = (1) on x2 < 0\n")

    def test_parse_point(self):
        assert parse_point("1/2,-3", 2) == (Fraction(1, 2), Fraction(-3))
        with pytest.raises(SystemParseError):
            parse_point("1,2,3", 2)

    def test_parse_target(self):
        target = parse_target(" (x1*x2, 1) ", 2)
        assert [str(c) for c in target] == ["x1*x2", "1"]
        with pytest.raises(SystemParseError, match=r'look like "\(e1,...,en\)"'):
            parse_target("x1, 1", 2)
        with pytest.raises(SystemParseError, match="target has 1 components, expected 2"):
            parse_target("(x1)", 2)

    def test_parse_grid(self):
        axes = parse_grid("x1=-1:1:1/2,x2=0:1:1", 2)
        assert axes[1] == [Fraction(-1), Fraction(-1, 2), 0, Fraction(1, 2), 1]
        assert axes[2] == [0, 1]

    def test_parse_grid_reads_decimals_exactly(self):
        # as parse_point does: ten or more decimal places stay where they are
        axes = parse_grid("x1=0.1234567891234:0.2:0.05", 1)
        assert axes[1] == [Fraction("0.1234567891234"), Fraction("0.1734567891234")]
        assert axes[1][0] == parse_point("0.1234567891234", 1)[0]

    def test_parse_grid_rejects_an_axis_named_twice(self):
        with pytest.raises(SystemParseError, match="grid axis x1 is given twice"):
            parse_grid("x1=0:1:1,x1=0:2:1", 2)

    def test_parse_grid_rejects_an_axis_with_no_point(self):
        assert parse_grid("x2=0:0:1", 2) == {2: [0]}
        with pytest.raises(UsageError, match="grid axis x1 has no point: 1 is above 0"):
            parse_grid("x1=1:0:1/2", 2)

    def test_parse_grid_caps_the_point_count(self):
        assert GRID_POINTS_CAP == 10_000
        axes = parse_grid("x1=0:99:1,x2=0:99:1", 2)  # exactly at the cap
        assert len(axes[1]) * len(axes[2]) == GRID_POINTS_CAP
        with pytest.raises(UsageError, match="grid has 1000001 points"):
            parse_grid("x1=0:1000:1/1000", 2)
        with pytest.raises(UsageError, match="grid has 10100 points"):
            parse_grid("x1=0:99:1,x2=0:100:1", 2)


@pytest.fixture
def shear_file(tmp_path):
    path = tmp_path / "shear.vf"
    path.write_text(SHEAR)
    return str(path)


@pytest.fixture
def isolated_file(tmp_path):
    path = tmp_path / "isolated.vf"
    path.write_text(ISOLATED)
    return str(path)


@pytest.fixture
def vanishing_file(tmp_path):
    path = tmp_path / "vanishing.vf"
    path.write_text(VANISHING)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_bracket_text(self, capsys, isolated_file):
        code, out = run_cli(capsys, "bracket", "--system", isolated_file,
                            "--fields", "X1,X2")
        assert code == 0
        assert '"-x1"' in out  # first slot of the bracket

    def test_rank_point_json(self, capsys, shear_file):
        code, out = run_cli(capsys, "rank", "--system", shear_file,
                            "--point", "0,5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["rank"] == 1
        assert payload["results"]["minors"] == ["x1"]

    def test_rank_grid_csv(self, capsys, shear_file):
        code, out = run_cli(capsys, "rank", "--system", shear_file,
                            "--grid", "x1=-1:1:1/2,x2=0:0:1", "--format", "csv")
        assert code == 0
        assert out == ("point,rank,class\n-1;0,2,regular\n-1/2;0,2,regular\n"
                       "0;0,1,singular\n1/2;0,2,regular\n1;0,2,regular\n")

    def test_orbit_csv(self, capsys, shear_file, tmp_path):
        # one row per vector under a header: none for an exact orbit, the
        # golden report's vectors for a sampled one; a fixed-time orbit has
        # no rows, so its CSV form is the JSON report
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point", "1/2,3/4",
                            "--format", "csv")
        assert (code, out) == (0, "v0,v1\n")
        path = tmp_path / "one-sided-flat.vf"
        path.write_text(PRESETS["one-sided-flat"].system_text)
        code, out = run_cli(capsys, "orbit", "--system", str(path), "--point=-1/2,1/2",
                            "--seed", "7", "--format", "csv")
        golden = json.loads(open(os.path.join(GOLDEN, "one-sided-flat-orbit.json")).read())["results"]
        assert code == 0 and out.startswith("v0,v1\n1.0,0.0\n0.0,0.0\n")
        assert out == "v0,v1\n" + "".join(f"{x},{y}\n" for x, y in golden["vectors"])
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point", "1/2,3/4",
                            "--fixed-time", "1/2", "--format", "csv")
        assert code == 0 and json.loads(out)["results"]["certificate"] == "bracket-rank"

    def test_usage_error(self, capsys, shear_file):
        code, _ = run_cli(capsys, "rank", "--system", shear_file)
        assert code == 1

    def test_parse_error_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.vf"
        bad.write_text("system s dim 1\nfield X = (x7)\n")
        code, _ = run_cli(capsys, "rank", "--system", str(bad), "--point", "0")
        assert code == 2

    def test_non_ascii_digit_is_a_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.vf"
        bad.write_text("system s dim 1\nfield X = (x1^²)\nfield Y = (1)\n")
        code, out = run_cli(capsys, "bracket", "--system", str(bad), "--fields", "X,Y",
                            "--format", "json")
        assert code == 2
        assert "unexpected character '²' (line 1, column 4)" in json.loads(out)["error"]

    @pytest.mark.parametrize("text,argv,error", [
        ("system s dim ٢\nfield X1 = (1, 0)\n", ["--point", "0,0"], "expected header"),
        ("system s dim 2\nfield X1 = (1, 0) on x١ < 1\n", ["--point", "0,0"],
         "bad inequality"),
        ("system s dim 2\nfield X1 = (1, 0) on x1 < ١/2\n", ["--point", "0,0"],
         "bad inequality"),
        (SHEAR, ["--grid", "x١=0:1:1/2"], "bad grid axis"),
        (SHEAR, ["--grid", "x1=0:١:1/2"], "bad grid axis"),
        (SHEAR, ["--point", "١/2,0"], "bad coordinate '١/2'"),
    ], ids=["header", "inequality-index", "inequality-bound", "grid-index", "grid-value",
            "point"])
    def test_non_ascii_digits_in_systems_and_points(self, capsys, tmp_path, text, argv, error):
        # \d and Fraction read every Unicode digit: "dim ٢" declared dimension 2
        # and "x١" meant x1; the same input in ASCII digits is accepted
        path = tmp_path / "system.vf"
        path.write_text(text, encoding="utf-8")
        code, out = run_cli(capsys, "rank", "--system", str(path), *argv, "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_PARSE, "parse-error")
        assert error in report["error"]
        ascii_digits = str.maketrans("١٢", "12")
        path.write_text(text.translate(ascii_digits))
        code, out = run_cli(capsys, "rank", "--system", str(path),
                            *[a.translate(ascii_digits) for a in argv], "--format", "json")
        assert (code, json.loads(out)["status"]) == (0, "ok")

    def test_non_ascii_digits_in_times(self, capsys, shear_file):
        # Fraction reads "١/2" as 1/2; like every invalid time it is a usage error
        for flag in ("--max-time", "--fixed-time"):
            code = main(["orbit", "--system", shear_file, "--point", "0,0", flag, "١/2"])
            assert code == cli.EXIT_USAGE
            assert "invalid time '١/2'" in capsys.readouterr().err

    def test_rank_point_of_an_all_zero_system(self, capsys, tmp_path):
        # generic rank 0: the one minor is "1", so no point is singular
        path = tmp_path / "zero.vf"
        path.write_text("system zero dim 2\nfield X1 = (0, 0)\n")
        code, out = run_cli(capsys, "rank", "--system", str(path), "--point", "1,1",
                            "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert (results["rank"], results["generic_rank"], results["minors"]) == (0, 0, ["1"])

    def test_numeric_failure_exit(self, capsys, tmp_path):
        blow = tmp_path / "blow.vf"
        blow.write_text("system blow dim 1\nfield X = (1) on x1 < 1\n")
        code, out = run_cli(capsys, "orbit", "--system", str(blow),
                            "--point", "5", "--words", "5")
        assert code == 3

    @pytest.mark.parametrize("argv", [["rank", "--point", "-1,0"], ["frobenius"]],
                             ids=["rank", "frobenius"])
    def test_pole_is_a_numeric_failure(self, capsys, tmp_path, argv):
        # the system parses; frobenius's default grid holds x1 = -1
        pole = tmp_path / "pole.vf"
        pole.write_text("system pole dim 2\nfield X1 = (1/(x1+1), 0)\nfield X2 = (0, 1)\n")
        code, out = run_cli(capsys, argv[0], "--system", str(pole), *argv[1:],
                            "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_NUMERIC, "numeric-failure")
        assert report["error"] == "division by zero at a pole"

    @pytest.mark.parametrize("flat, argv", [
        ("bump", ["rank", "--point", "0,0"]),
        ("bump", ["lie", "--point", "0,0"]),
        ("bump", ["orbit", "--point", "0,0"]),
        ("bump", ["frobenius"]),
        ("bumpp", ["rank", "--point", "0,1"]),
        ("bumpp", ["rank", "--point", "-1,0"]),
        ("bumpp", ["lie", "--point", "-1/2,0"]),
        ("bumpp", ["orbit", "--point", "-1,0"]),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v).replace("--point-", ""))
    def test_negative_flat_power_is_a_pole(self, capsys, tmp_path, flat, argv):
        # bump(0) = 0 and bumpp(u) = 0 for u <= 0, so 1/flat(x1) has poles there
        path = tmp_path / "inverse-flat.vf"
        path.write_text(f"system inverse-flat dim 2\nfield X1 = (1, 0)\n"
                        f"field X2 = (0, 1/{flat}(x1))\n")
        code, out = run_cli(capsys, argv[0], "--system", str(path), *argv[1:],
                            "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_NUMERIC, "numeric-failure")
        assert report["error"] == "division by zero at a pole"

    @pytest.mark.parametrize("argv, error", [
        (["orbit", "--point", "1/2,1/3"], "no generator is defined at (1/2, 1/3)"),
        (["orbit", "--point", "1/2,1/3", "--fixed-time", "1/2"],
         "no net-time-0.5 seed word succeeds from (1/2, 1/3)"),
        (["rank", "--point", "1/2,1/3"],
         "no generator of the distribution is defined at (1/2, 1/3)"),
        (["frobenius", "--grid", "x1=1/2:1:1/2,x2=0:1:1"],
         "no generator of the distribution is defined at (1/2, 0)"),
        (["lie", "--point", "1/2,1/3", "--fixed-time-ideal"], "no generator defined at (1/2, 1/3)"),
    ], ids=["orbit", "orbit-fixed-time", "rank", "frobenius", "lie-fixed-time-ideal"])
    def test_error_prints_the_point_as_given(self, capsys, tmp_path, argv, error):
        # both generators live on x1 < 0
        path = tmp_path / "left.vf"
        path.write_text("system left dim 2\nfield X1 = (1, 0) on x1 < 0\n"
                        "field X2 = (0, 1) on x1 < 0\n")
        code, out = run_cli(capsys, argv[0], "--system", str(path), *argv[1:],
                            "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_NUMERIC, "numeric-failure")
        assert report["error"] == error

    def test_inverse_of_an_inverse_base_ranks_exactly(self, capsys, tmp_path):
        path = tmp_path / "inverse.vf"
        path.write_text("system inverse dim 2\nfield X1 = (((x1+1)^-1)^-1, 0)\n")
        code, out = run_cli(capsys, "rank", "--system", str(path), "--point", "1,0",
                            "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["method"] == "exact-rational"

    def test_lie_command(self, capsys, shear_file):
        code, out = run_cli(capsys, "lie", "--system", shear_file,
                            "--point", "0,0", "--depth", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["ranks_by_depth"] == [1, 2, 2, 2]
        assert payload["results"]["stabilized_at"] == 2

    def test_mixed_degree_pair_ranks_exactly_away_from_the_origin(self, capsys, tmp_path):
        # X1 and X2 vanish only at the origin, so at (3/8, -5/8) they span at
        # every depth, and the zero-time ideal is the whole algebra
        path = tmp_path / "mixed-degree-pair.vf"
        path.write_text(PRESETS["mixed-degree-pair"].system_text)
        code, out = run_cli(capsys, "rank", "--system", str(path), "--point", "3/8,-5/8",
                            "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0
        assert (res["rank"], res["method"], res["generic_rank"], len(res["minors"])) == (
            2, "exact-rational", 2, 1)
        code, out = run_cli(capsys, "lie", "--system", str(path), "--point", "3/8,-5/8",
                            "--depth", "5", "--module-degree", "4", "--fixed-time-ideal",
                            "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0
        assert res["ranks_by_depth"] == [2] * 5
        assert res["fixed_time_ideal"] == {"ideal_rank": 2, "lie_rank": 2, "codim": 0}

    def test_member_command(self, capsys, shear_file):
        code, out = run_cli(capsys, "member", "--system", shear_file,
                            "--target", "(0,x1^2)", "--gens", "X2",
                            "--degree", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["member"] is True
        assert payload["results"]["multipliers"] == ["x1"]

    def test_orbit_fixed_time(self, capsys, shear_file):
        code, out = run_cli(capsys, "orbit", "--system", shear_file,
                            "--point", "0,0", "--words", "60", "--seed", "5",
                            "--fixed-time", "0.0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["dimension"] == 2

    def test_orbit_rational_times(self, capsys, shear_file):
        def orbit(*times):
            return run_cli(capsys, "orbit", "--system", shear_file, "--point",
                           "3/10,7/10", "--words", "20", *times, "--format", "json")

        def results(*times):
            code, out = orbit(*times)
            assert code == 0
            return json.loads(out)["results"]

        decimal = results("--fixed-time", "0.5", "--max-time", "0.25")
        assert decimal["net_time"] == 0.5
        assert results("--fixed-time", "1/2", "--max-time", "1/4") == decimal
        for bad in ("1/0", "half", ""):
            assert orbit("--fixed-time", bad)[0] == 1
            assert orbit("--max-time", bad)[0] == 1

    def test_orbit_certificate(self, capsys, shear_file, tmp_path):
        # the bracket rank n decides the dimension, so no word is walked and
        # no vector sampled
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point", "0,0",
                            "--words", "30", "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0
        assert (res["dimension"], res["certificate"], res["certified_exact"]) == (
            2, "bracket-rank", True)
        assert (res["words_used"], res["words_skipped"], res["vectors"]) == (0, 0, [])
        partial = tmp_path / "partial.vf"
        partial.write_text(PARTIAL)
        _, out = run_cli(capsys, "orbit", "--system", str(partial), "--point", "2,0",
                         "--words", "30", "--format", "json")
        res = json.loads(out)["results"]
        assert (res["dimension"], res["certificate"], res["certified_exact"]) == (
            1, "sampled", False)

    def test_certified_exact_below_full_dimension_only_under_nagano(self, capsys, tmp_path):
        def orbit(text, point, *opts):
            path = tmp_path / "family.vf"
            path.write_text(text)
            code, out = run_cli(capsys, "orbit", "--system", str(path), f"--point={point}",
                                *opts, "--format", "json")
            assert code == 0
            res = json.loads(out)["results"]
            return res["dimension"], res["certificate"], res["certified_exact"]

        # words of total time <= 3 never leave x1 <= 0, where bumpp(x1) and
        # every bracket vanish; longer words show the orbit is R^2
        assert orbit(FLAT, "-3,0") == (1, "sampled", False)
        assert orbit(FLAT, "-3,0", "--max-time", "2") == (2, "sampled", True)
        assert orbit(CUBIC, "1/2,0") == (1, "nagano", True)
        # bumpp(x1) > 0 at x1 = 1, so X1 and X2 span: bracket rank n is exact
        assert orbit(FLAT, "1,0") == (2, "bracket-rank", True)

    @pytest.mark.parametrize("cmd,flag,value", [("orbit", "--point", "-3,0"),
                                                ("frobenius", "--chart-point", "-3,0"),
                                                ("orbit", "--fixed-time", "-1/2")])
    def test_negative_value_after_its_flag(self, capsys, shear_file, cmd, flag, value):
        # read as the value of the flag, as --flag=value is
        opts = ["--words", "10"] + (["--point", "1,1"] if flag == "--fixed-time" else [])
        given = [cmd, "--system", shear_file, "--format", "json", flag, value]
        if cmd == "orbit":
            given += opts
        code, out = run_cli(capsys, *given)
        joined = [f"{flag}={value}" if a == flag else a for a in given]
        joined.remove(value)
        code_joined, out_joined = run_cli(capsys, *joined)
        assert code == code_joined == 0
        report = json.loads(out)
        assert report["argv"] == given
        assert report["results"] == json.loads(out_joined)["results"]

    def test_orbit_bound_beyond_float_range(self, capsys, tmp_path):
        # an ODE flow on x1 < 10^400 flows as on the whole plane
        reports = []
        for on in (" on x1 < 1" + "0" * 400, ""):
            path = tmp_path / "far.vf"
            path.write_text(f"system far dim 2\nfield X1 = (1, 0)\nfield X2 = (0, x2^2){on}\n")
            code, out = run_cli(capsys, "orbit", "--system", str(path), "--point",
                                "0,1/10", "--words", "20", "--format", "json")
            assert code == 0
            reports.append(json.loads(out)["results"])
        far, free = reports
        for key in ("dimension", "vectors", "words_used"):
            assert far[key] == free[key]

    def test_generator_duplicate_in_the_fixed_time_ideal(self, capsys, tmp_path):
        # [X2, X1] = -X1, so the ideal at x1 = 1, where X2 - X1 vanishes, is R
        path = tmp_path / "step.vf"
        path.write_text(STEP)
        code, out = run_cli(capsys, "lie", "--system", str(path), "--point", "1",
                            "--fixed-time-ideal", "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0
        assert res["fixed_time_ideal"] == {"ideal_rank": 1, "lie_rank": 1, "codim": 0}
        assert [w["word"] for w in res["words"]] == ["X1", "X2"]
        code, out = run_cli(capsys, "orbit", "--system", str(path), "--point", "1",
                            "--words", "20", "--fixed-time", "1/2", "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0
        assert (res["dimension"], res["ideal_rank"], res["certificate"]) == (
            1, 1, "bracket-rank")

    @pytest.mark.parametrize("text,expected", [
        # the zero-time ideal holds X1 - X3 and X2 - X3: rank 2 where x1*x2 != 0
        ("system three dim 2\nfield X1 = (x1, 0)\nfield X2 = (0, x2)\n"
         "field X3 = (0, 0)\n", (2, 2, 2, "bracket-rank")),
        (PRESETS["nine-orbits"].system_text, (1, 2, 1, "zero-time-ideal")),
    ], ids=["three", "nine-orbits"])
    def test_fixed_time_ranks_at_the_exact_start(self, capsys, tmp_path, text, expected):
        # from (1, 1/10^12) the seed reaches a float point whose coordinates
        # differ by 12 orders of magnitude, where a float rank drops x2;
        # ranked at the exact start, the answers are orbit's
        path = tmp_path / "system.vf"
        path.write_text(text)
        point = ("--point", "1,1/1000000000000")
        code, out = run_cli(capsys, "orbit", "--system", str(path), *point,
                            "--fixed-time", "1/2", "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0
        assert (res["dimension"], res["orbit_dimension"], res["ideal_rank"],
                res["certificate"]) == expected
        code, out = run_cli(capsys, "orbit", "--system", str(path), *point, "--format", "json")
        orbit = json.loads(out)["results"]
        assert code == 0
        assert (orbit["dimension"], orbit["certificate"]) == (2, "bracket-rank")
        assert res["orbit_dimension"] == orbit["dimension"]

    def test_orbit_times_beyond_float_range(self, capsys, shear_file):
        for flag in ("--max-time", "--fixed-time"):
            code = main(["orbit", "--system", shear_file, "--point", "0,0",
                         flag, "1e400"])
            assert code == cli.EXIT_USAGE
            assert "invalid time '1e400'" in capsys.readouterr().err
        # a float t whose range [-t, t], which the sampler draws from, has no
        # finite width
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point", "0,0",
                            "--max-time", "1e308", "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_USAGE, "usage-error")
        assert report["error"] == ("--max-time 1e+308 gives a time range [-t, t] wider "
                                   "than the float range")
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point", "0,0",
                            "--words", "5", "--max-time", "8e307", "--format", "json")
        assert (code, json.loads(out)["status"]) == (0, "ok")

    def test_flow_points_beyond_float_range(self, capsys, shear_file, flow_steps):
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point",
                            "1e400,0", "--words", "5", "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_USAGE, "usage-error")
        assert "coordinate x1 lies beyond the float range" in report["error"]
        assert flow_steps == []
        code, out = run_cli(capsys, "frobenius", "--system", shear_file,
                            "--chart-point", "0,-1e400", "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_USAGE, "usage-error")
        assert "--chart-point coordinate x2 lies beyond" in report["error"]
        assert flow_steps == []
        code, out = run_cli(capsys, "rank", "--system", shear_file, "--point",
                            "1e400,0", "--format", "json")
        assert code == 0 and json.loads(out)["results"]["rank"] == 2

    def test_frobenius_command(self, capsys, isolated_file):
        code, out = run_cli(capsys, "frobenius", "--system", isolated_file,
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["integrable"] == "no"

    def test_module_degree_cap_reaches_lie(self, capsys, vanishing_file):
        def lie(degree):
            return run_cli(capsys, "lie", "--system", vanishing_file, "--point",
                           "1/2,3/4", "--module-degree", degree, "--format", "json")

        code, out = lie("4")
        assert code == 0
        assert json.loads(out)["results"]["certificate"] == "module-degree-4"
        code, out = lie("13")
        assert code == cli.EXIT_USAGE
        assert json.loads(out)["error"] == "--module-degree must lie in [0, 12], got 13"

    def test_module_degree_cap_reaches_frobenius(self, capsys, vanishing_file):
        code, out = run_cli(capsys, "frobenius", "--system", vanishing_file,
                            "--module-degree", "13", "--format", "json")
        assert code == cli.EXIT_USAGE
        assert json.loads(out)["error"] == "--module-degree must lie in [0, 12], got 13"

    def test_lie_fixed_time_ideal_walks_each_family_once(self, capsys, vanishing_file,
                                                          monkeypatch):
        # the report's ranks and words read the family's filtration, and the
        # ideal rank the time-extended family's: the walk and ``filtration``
        # both build through this one builder
        calls = []
        real = liealg._filtration_by_depth

        def counted(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(liealg, "_filtration_by_depth", counted)
        code, out = run_cli(capsys, "lie", "--system", vanishing_file, "--point",
                            "1/2,3/4", "--depth", "3", "--module-degree", "1",
                            "--fixed-time-ideal", "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["fixed_time_ideal"]["ideal_rank"] == 2
        assert [[X.dim for X in family] for family, _ in calls] == [[2, 2], [3, 3]]

    def test_lie_fixed_time_ideal_evaluates_each_word_once(self, capsys, vanishing_file,
                                                           monkeypatch):
        # one compile per component of each generator and word up to the
        # first depth where the rank is full: at (1/2, 3/4) the generators
        # alone (rank 2 at depth 1), and at the origin, where the rank stays
        # 0, all 14 words of the family; with the flag also the bracket
        # words of its time extension, 3 components each, up to the first
        # depth where the ideal rank reaches the Lie rank: 1 word (depth 2)
        # at (1/2, 3/4), where both are n = 2, and none at the origin, where
        # both are 0; the extension's generators are the family's values
        # with a 1 appended, so they compile nothing
        compiled = []
        real = vectorfield.compile_exact
        monkeypatch.setattr(vectorfield, "compile_exact", lambda e: compiled.append(e) or real(e))
        for point, rank, counts_at in (("1/2,3/4", 2, [4, 7]), ("0,0", 0, [28, 28])):
            counts = []
            for flags in ((), ("--fixed-time-ideal",)):
                compiled.clear()
                code, out = run_cli(capsys, "lie", "--system", vanishing_file, "--point",
                                    point, "--depth", "5", "--module-degree", "4", *flags,
                                    "--format", "json")
                assert code == 0
                counts.append(len(compiled))
            assert json.loads(out)["results"]["fixed_time_ideal"] == {
                "ideal_rank": rank, "lie_rank": rank, "codim": 0}
            assert counts == counts_at

    def test_lie_at_full_rank_compiles_only_the_generators(self, capsys, vanishing_file,
                                                            monkeypatch):
        # rank 2 at depth 1 at (1/2, 3/4): the report still lists all 14
        # words to the cap, but only the generators' 4 components are
        # compiled (28 when every word was evaluated)
        compiled = []
        real = vectorfield.compile_exact
        monkeypatch.setattr(vectorfield, "compile_exact", lambda e: compiled.append(e) or real(e))
        code, out = run_cli(capsys, "lie", "--system", vanishing_file, "--point", "1/2,3/4",
                            "--depth", "5", "--module-degree", "4", "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["ranks_by_depth"] == [2] * 5
        assert len(results["words"]) == 14 and results["words"][-1]["depth"] == 5
        assert len(compiled) == 4

    def test_unknowns_cap_reaches_lie(self, capsys, vanishing_file, monkeypatch):
        # an over-cap module search stops with a note; the ranks still print
        monkeypatch.setattr(membership, "UNKNOWNS_CAP", 10)
        code, out = run_cli(capsys, "lie", "--system", vanishing_file, "--point",
                            "1/2,3/4", "--module-degree", "4", "--format", "json")
        assert code == 0
        res = json.loads(out)["results"]
        assert res["certificate"] is None and res["stabilized_at"] is None
        assert res["ranks_by_depth"] and res["words"]
        assert res["note"].endswith(
            "module search stopped at depth 1: membership system has 30 unknowns, "
            "more than 10")

    def test_over_cap_member_is_a_numeric_failure(self, capsys, tmp_path):
        # one generator in 10 variables at degree 12: C(22, 12) = 646646 unknowns
        path = tmp_path / "ten.vf"
        path.write_text("system ten dim 10\nfield G = (x10" + ", 0" * 9 + ")\n")
        code, out = run_cli(capsys, "member", "--system", str(path), "--target",
                            "(x1" + ", 0" * 9 + ")", "--gens", "G", "--degree", "12",
                            "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_NUMERIC, "numeric-failure")
        assert report["error"] == "membership system has 646646 unknowns, more than 4000"

    def test_grid_cap_is_a_usage_error(self, capsys, shear_file):
        code, out = run_cli(capsys, "rank", "--system", shear_file, "--grid",
                            "x1=0:1000:1/1000", "--format", "json")
        assert code == 1
        assert json.loads(out)["status"] == "usage-error"

    @pytest.mark.parametrize("command", ["rank", "frobenius"])
    def test_grid_axis_with_no_point_is_a_usage_error(self, capsys, shear_file, command):
        code, out = run_cli(capsys, command, "--system", shear_file, "--grid",
                            "x1=1:0:1/2,x2=0:0:1", "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_USAGE, "usage-error")
        assert report["error"] == "grid axis x1 has no point: 1 is above 0"

    @pytest.mark.parametrize("command", ["rank", "frobenius"])
    def test_grid_axis_named_twice_is_a_parse_error(self, capsys, shear_file, command):
        code, out = run_cli(capsys, command, "--system", shear_file, "--grid",
                            "x1=0:1:1,x1=0:2:1", "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_PARSE, "parse-error")
        assert report["error"] == "grid axis x1 is given twice"

    @pytest.mark.parametrize("spec", ["x1=0:1:1/0", "x1=0:1/0:1", "x1=0:1:1..2"])
    def test_bad_grid_rational_is_a_parse_error(self, capsys, shear_file, spec):
        code, out = run_cli(capsys, "rank", "--system", shear_file, "--grid", spec,
                            "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "parse-error"
        assert payload["error"].startswith("bad grid value")

    @pytest.mark.parametrize("flag,cap", [("--words", WORDS_CAP), ("--max-len", MAX_LEN_CAP)])
    def test_orbit_word_caps_are_usage_errors(self, capsys, shear_file, flag, cap):
        assert (WORDS_CAP, MAX_LEN_CAP) == (5_000, 32)
        for bad in ("0", "-1", str(cap + 1)):
            code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point",
                                "1,1", flag, bad, "--format", "json")
            assert code == 1
            assert json.loads(out)["error"] == f"{flag} must lie in [1, {cap}], got {bad}"

    def test_negative_max_time_is_a_usage_error(self, capsys, shear_file, monkeypatch):
        # rejected before the system file is read; a zero time stays valid
        loads = []
        real = cli._load_system
        monkeypatch.setattr(cli, "_load_system", lambda p: loads.append(p) or real(p))
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point", "0,0",
                            "--max-time", "-1", "--format", "json")
        report = json.loads(out)
        assert (code, report["status"]) == (cli.EXIT_USAGE, "usage-error")
        assert report["error"] == "--max-time must not be negative, got -1.0"
        assert loads == []
        code, out = run_cli(capsys, "orbit", "--system", shear_file, "--point", "0,0",
                            "--max-time", "0", "--words", "5", "--format", "json")
        assert (code, json.loads(out)["status"]) == (0, "ok")

    @pytest.mark.parametrize("text", [SHEAR, VANISHING], ids=["linear-shear", "vanishing-pair"])
    @pytest.mark.parametrize("command,flag,lo,hi", [
        (["lie", "--point", "1/2,3/4"], "--depth", 1, liealg.DEPTH_CAP_LIMIT),
        (["orbit", "--point", "1/2,3/4"], "--depth", 1, liealg.DEPTH_CAP_LIMIT),
        (["lie", "--point", "1/2,3/4"], "--module-degree", 0, membership.DEGREE_CAP),
        (["frobenius"], "--module-degree", 0, membership.DEGREE_CAP),
        (["member", "--target", "(0,x1)", "--gens", "X2"], "--degree", 0,
         membership.DEGREE_CAP),
    ], ids=["lie-depth", "orbit-depth", "lie-module-degree", "frobenius-module-degree",
            "member-degree"])
    def test_depth_and_degree_caps_are_usage_errors(self, capsys, tmp_path, monkeypatch,
                                                    text, command, flag, lo, hi):
        # rejected for every system, before the system file is read
        assert (liealg.DEPTH_CAP_LIMIT, membership.DEGREE_CAP) == (10, 12)
        path = tmp_path / "system.vf"
        path.write_text(text)
        loads = []
        real = cli._load_system
        monkeypatch.setattr(cli, "_load_system", lambda p: loads.append(p) or real(p))
        for bad in (lo - 1, hi + 1):
            code, out = run_cli(capsys, command[0], "--system", str(path), *command[1:],
                                flag, str(bad), "--format", "json")
            report = json.loads(out)
            assert (code, report["status"]) == (cli.EXIT_USAGE, "usage-error")
            assert report["error"] == f"{flag} must lie in [{lo}, {hi}], got {bad}"
        assert loads == []

    def test_examples_list(self, capsys):
        code, out = run_cli(capsys, "examples", "--list", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        names = {entry["name"] for entry in payload["results"]}
        assert "nine-orbits" in names and "umbrella-ideal" in names

    def test_examples_run_green_preset(self, capsys):
        code, out = run_cli(capsys, "examples", "--run", "linear-shear",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["mismatches"] == 0

    def test_examples_run_refuted_fact(self, capsys):
        # the corpus keeps one stated fact the implementation refutes: the
        # axis fixed-time orbit is sampled one-dimensional, not a singleton
        code, out = run_cli(capsys, "examples", "--run", "hyperbola-fixed-time",
                            "--format", "json")
        assert code == 4
        payload = json.loads(out)
        assert payload["results"]["mismatches"] == 1
        failing = [
            f for run in payload["results"]["runs"] for f in run["facts"] if not f["ok"]
        ]
        assert [f["id"] for f in failing] == ["axis-singleton"]

    def test_unknown_preset_usage(self, capsys):
        code, _ = run_cli(capsys, "examples", "--run", "nope")
        assert code == 1


class TestParser:
    """``main`` builds only the parser of the subcommand it runs; the full
    parser serves no argument, -h and unknown names."""

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_subcommand_help_matches_the_full_parser(self, capsys, name):
        assert main([name, "--help"]) == cli.EXIT_OK
        alone = capsys.readouterr().out
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([name, "--help"])
        assert alone == capsys.readouterr().out
        assert alone.startswith(f"usage: vfkit {name} ")

    @pytest.mark.parametrize("argv, prog", [
        ([], "vfkit"),
        (["nope"], "vfkit"),
        (["bracket", "--fields", "X1,X2"], "vfkit bracket"),
        (["lie", "--system", "s.vf", "--point", "0,0", "--bogus"], "vfkit lie"),
    ], ids=["no-argument", "unknown-subcommand", "missing-option", "unrecognized-option"])
    def test_usage_errors(self, capsys, argv, prog):
        # an unrecognized option is the subcommand's error, under its usage line
        assert main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: {prog} ")
        assert f"\n{prog}: error: " in captured.err

    def test_top_level_help(self, capsys):
        assert main(["--help"]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: vfkit [-h]")
        assert all(name in out for name in cli.COMMANDS)

    def test_report_echoes_argv_from_the_subcommand(self, capsys, shear_file):
        argv = ["bracket", "--system", shear_file, "--fields", "X1,X2", "--format", "json"]
        code, out = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK
        assert json.loads(out)["argv"] == argv


class TestReports:
    def test_reports_validate_against_schema(self, capsys, shear_file):
        import vfkit

        schema_path = os.path.join(os.path.dirname(vfkit.__file__), "report_schema.json")
        schema = json.load(open(schema_path))
        invocations = [
            ("bracket", "--system", shear_file, "--fields", "X1,X2"),
            ("rank", "--system", shear_file, "--point", "1,1"),
            ("lie", "--system", shear_file, "--point", "0,0"),
            ("orbit", "--system", shear_file, "--point", "1,1", "--words", "30"),
            ("examples", "--list"),
        ]
        for argv in invocations:
            code, out = run_cli(capsys, *argv, "--format", "json")
            assert code == 0
            jsonschema.validate(json.loads(out), schema)

    def test_rank_point_restricted_domain(self, capsys, tmp_path):
        # minors of the full generator matrix do not apply when a generator
        # is undefined somewhere, so the report leaves them out
        import vfkit

        path = tmp_path / "half.vf"
        path.write_text(HALF_PLANE)
        code, out = run_cli(capsys, "rank", "--system", str(path),
                            "--point", "3/10,7/10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["rank"] == 1
        assert "minors" not in payload["results"]
        schema_path = os.path.join(os.path.dirname(vfkit.__file__), "report_schema.json")
        jsonschema.validate(payload, json.load(open(schema_path)))

    def test_tolerances_echo_linalg(self, capsys, shear_file):
        _, out = run_cli(capsys, "rank", "--system", shear_file, "--point", "1,1",
                         "--format", "json")
        assert json.loads(out)["tolerances"] == {"svd_rel_tol": VALUE_REL_TOL}
        _, out = run_cli(capsys, "frobenius", "--system", shear_file,
                         "--grid", "x1=0:1:1,x2=0:0:1", "--chart-point", "1,1",
                         "--format", "json")
        assert json.loads(out)["tolerances"] == {
            "chart_residual": FLOW_REL_TOL,
            "svd_rel_tol": VALUE_REL_TOL,
        }

    def test_byte_identical_reports(self, capsys, shear_file):
        args = ("orbit", "--system", shear_file, "--point", "1,1",
                "--words", "40", "--seed", "3", "--format", "json")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_seed_defaults_to_zero(self, capsys, shear_file, monkeypatch):
        # --seed is the one way to set the seed; the environment sets none
        monkeypatch.setenv("VFKIT_SEED", "99")
        args = ("orbit", "--system", shear_file, "--point", "1,1", "--words", "10",
                "--format", "json")
        code, out = run_cli(capsys, *args)
        _, explicit = run_cli(capsys, *args, "--seed", "0")
        assert code == 0 and json.loads(out)["seed"] == 0
        assert json.loads(out)["results"] == json.loads(explicit)["results"]


def preset_orbit(capsys, tmp_path, name, *opts):
    """``vfkit orbit`` on the preset at (1/2, ..., 1/2): its results."""
    path = tmp_path / f"{name}.vf"
    path.write_text(PRESETS[name].system_text)
    point = ",".join(["1/2"] * parse_system(PRESETS[name].system_text).dim)
    code, out = run_cli(capsys, "orbit", "--system", str(path), "--point", point, *opts,
                        "--format", "json")
    assert code == 0
    return json.loads(out)["results"]


def spy(monkeypatch, module, name):
    """The argument tuples of every call to module.name while the test runs."""
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or real(*a))
    return calls


class TestExactOrbitsWalkNoFlow:
    @pytest.mark.parametrize("name", list(PRESETS))
    def test_orbit_walks_no_word(self, capsys, tmp_path, monkeypatch, name):
        walks = spy(monkeypatch, fields, "_walk")
        res = preset_orbit(capsys, tmp_path, name)
        assert res["certificate"] in ("nagano", "bracket-rank") and res["certified_exact"]
        assert (res["vectors"], res["words_used"], res["words_skipped"]) == ([], 0, 0)
        assert walks == []

    @pytest.mark.parametrize("name", list(PRESETS))
    def test_exact_fixed_time_walks_no_pushforward(self, capsys, tmp_path, monkeypatch,
                                                    name):
        walks = spy(monkeypatch, fields, "_walk")
        res = preset_orbit(capsys, tmp_path, name, "--fixed-time", "1/2", "--words", "12")
        assert "max_displacement" not in res
        # a seed attempt walks one word of net time 1/2 in one or two steps
        seeds = [w for _, w, *_ in walks
                 if len(w) == 1 and len(w[0]) <= 2 and sum(t for _, t in w[0]) == 0.5]
        others = [a for a in walks if a[1] not in seeds]
        assert seeds
        if name == "half-plane-translations":
            # restricted domains, and X1 - X2 alone spans the zero-time ideal:
            # the one other walk pushes the generators along the sampler's 12
            # free words, which give the fixed-time bound
            assert res["certificate"] == "sampled"
            ((_, words, _, tangents, _),) = others
            assert tangents is not None
            assert list(words) == WordSampler(seed=0, count=12).words(2)
            assert res["words_used"] + res["words_skipped"] == 12
        else:
            assert res["certificate"] in ("zero-time-ideal", "bracket-rank")
            assert res["dimension"] == res["ideal_rank"]
            assert others == []
            assert (res["words_used"], res["words_skipped"]) == (0, 0)

    def test_vanishing_generators_give_bracket_rank_zero(self, capsys, tmp_path,
                                                         monkeypatch):
        # both generators of mixed-degree-pair vanish at the origin, so every
        # flow fixes it, though the family is not Nagano-certified
        walks = spy(monkeypatch, fields, "_walk")
        path = tmp_path / "mixed-degree-pair.vf"
        path.write_text(PRESETS["mixed-degree-pair"].system_text)
        code, out = run_cli(capsys, "orbit", "--system", str(path), "--point", "0,0",
                            "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0 and walks == []
        assert (res["certificate"], res["dimension"], res["certified_exact"]) == (
            "bracket-rank", 0, True)
        assert (res["vectors"], res["words_used"], res["words_skipped"]) == ([], 0, 0)

    def test_fixed_time_at_a_fixed_point_walks_no_word(self, capsys, tmp_path, monkeypatch):
        # every X_i is exactly zero at the origin, a flat factor included, so
        # every flow fixes it: it is reached exactly, and the fixed-time
        # answer is "bracket-rank" 0 as the orbit's is, with no seed word or
        # sampled word walked (before, 200 zero-sum words gave a sampled 0)
        path = tmp_path / "flat-fixed.vf"
        path.write_text("system flat-fixed dim 2\nfield X1 = (x1*bump(x2), 0)\n"
                        "field X2 = (0, x1)\n")
        walks = spy(monkeypatch, fields, "_walk")
        for opts in (("--fixed-time", "1/2"), ()):
            code, out = run_cli(capsys, "orbit", "--system", str(path), "--point", "0,0",
                                *opts, "--format", "json")
            res = json.loads(out)["results"]
            assert code == 0 and walks == []
            assert (res["certificate"], res["dimension"], res["words_used"]) == (
                "bracket-rank", 0, 0)
        code, out = run_cli(capsys, "orbit", "--system", str(path), "--point", "0,0",
                            "--fixed-time", "1/2", "--format", "json")
        assert json.loads(out)["results"]["reached"] == [0, 0]

    def test_mixed_degree_pair_is_bracket_rank_in_both_modes(self, capsys, tmp_path):
        for opts in ((), ("--fixed-time", "1/2", "--words", "12")):
            res = preset_orbit(capsys, tmp_path, "mixed-degree-pair", *opts)
            assert (res["certificate"], res["dimension"]) == ("bracket-rank", 2)


DATA = os.path.join(os.path.dirname(__file__), "data")


class TestGenericFamilies:
    """Seeded random families whose module search took minutes before the
    bracket rank was read first; at these points the rank is n."""

    @pytest.mark.parametrize("name,opts,dim", [
        ("c1", ("--point", "1/2,1/2,0"), 3),
        ("c3", ("--point=-1,-1/2,1/2",), 3),
        ("c2", ("--point=0,-1", "--fixed-time", "1/2"), 2),
    ])
    def test_full_rank_answers_without_module_search(self, capsys, monkeypatch, name,
                                                     opts, dim):
        searches = spy(monkeypatch, liealg, "_module_closure")
        code, out = run_cli(capsys, "orbit", "--system", os.path.join(DATA, f"{name}.vf"),
                            *opts, "--format", "json")
        res = json.loads(out)["results"]
        assert code == 0
        assert (res["dimension"], res["certificate"]) == (dim, "bracket-rank")
        assert (res["words_used"], res["words_skipped"]) == (0, 0)
        assert searches == []


BLOW = """\
system blow dim 3
field X1 = (0, 1, 0)
field X2 = (x1^2+x2^2, 0, 1)
"""


@pytest.mark.parametrize("text,opts,counts", [
    (BLOW, ("--point=2,1,0", "--max-time", "1"), (3, 19, 13)),
    (BLOW, ("--point=3,2,0", "--max-time", "1.5", "--max-len", "8"), (3, 12, 20)),
    (PRESETS["isolated-leaf"].system_text,
     ("--point=2,1,-1", "--max-time", "1.5", "--max-len", "8"), (3, 32, 0)),
], ids=["blow-1", "blow-2", "isolated-leaf"])
def test_sampled_orbit_counts_through_blow_up_words(capsys, tmp_path, text, opts, counts):
    # at depth 1 the bracket rank is 2, so the orbit is sampled; along X2,
    # x1' = x1^2 + x2^2 blows up in finite time, and the words whose flows
    # blow up are skipped; rank 3 after the first FIRST_WORDS words ends
    # the walk
    path = tmp_path / "family.vf"
    path.write_text(text)
    code, out = run_cli(capsys, "orbit", "--system", str(path), *opts, "--depth", "1",
                        "--format", "json")
    res = json.loads(out)["results"]
    assert code == 0
    assert (res["dimension"], res["words_used"], res["words_skipped"]) == counts


def test_sampled_orbit_stops_at_full_rank(capsys, tmp_path, monkeypatch):
    # the one-sided-flat orbit golden: the rank is 2 after the first
    # FIRST_WORDS words, and no later word can raise it (an orbit is a
    # submanifold of R^n), so no later word is walked
    walks = spy(monkeypatch, fields, "pushforward_along_words")
    path = tmp_path / "one-sided-flat.vf"
    path.write_text(PRESETS["one-sided-flat"].system_text)
    code, out = run_cli(capsys, "orbit", "--system", str(path), "--point=-1/2,1/2",
                        "--seed", "7", "--format", "json")
    res = json.loads(out)["results"]
    assert (code, res["dimension"], res["certificate"]) == (0, 2, "sampled")
    assert [len(words) for _, words, _, _ in walks] == [FIRST_WORDS]
    assert res["words_used"] + res["words_skipped"] == FIRST_WORDS


# -- the one-pass JSON writer ---------------------------------------------------------

JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(),
    st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0),
    st.fractions(max_denominator=50), st.integers().map(Fraction),
)
JSON_KEYS = st.one_of(st.text(), st.integers(), st.booleans(), st.fractions(max_denominator=5),
                      st.none())


def json_reports(leaves=JSON_LEAVES):
    """Nested reports as vfkit builds them: dicts with str and other keys,
    lists and tuples (empty ones too) over the leaves."""
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(JSON_KEYS, inner, max_size=4)), max_leaves=20)


def assert_writes_like_json(report):
    buf = io.StringIO()
    cli._emit(report, "json", buf)
    assert buf.getvalue() == json.dumps(cli._jsonable(report), sort_keys=True, indent=2) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_reports())
def test_json_report_text_is_json_dumps_of_jsonable(report):
    assert_writes_like_json(report)
    out = []
    cli._write_json(report, out)
    assert "".join(out) == json.dumps(cli._jsonable(report), sort_keys=True, indent=2)


def test_json_report_text_rejects_what_json_rejects():
    for report in ({"a": object()}, [np.bool_(True)], {"a": {1, 2}}):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json.dumps(cli._jsonable(report), sort_keys=True, indent=2)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            cli._emit(report, "json", io.StringIO())
