import contextlib
import dataclasses
import io
import json
import subprocess
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcfloer import cli, gc_core
from gcfloer.cli import main, rational
from gcfloer.flags import EigenProfile, FlagShape
from gcfloer.potential import fl3_critical_points
from gcfloer.spaces import SPACES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def strict_json(text):
    """json.loads that rejects NaN and Infinity, which are not JSON."""

    def reject(constant):
        raise ValueError(f"{constant} in the output")

    return json.loads(text, parse_constant=reject)


def test_rational_parsing(capsys):
    from fractions import Fraction

    assert rational("3/4") == Fraction(3, 4)
    assert rational("2") == Fraction(2)
    assert rational("0.3") == Fraction(3, 10)  # converted from float, warns
    with pytest.raises(Exception):
        rational("abc")


def test_polytope_fl3_json_roundtrip(capsys):
    code, out, _ = run(capsys, "polytope", "Fl3", "--l1", "1", "--l2", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["facet_count"] == 6
    want = gc_core.polytope_to_json(
        gc_core.build_polytope(FlagShape((1, 2), 3), EigenProfile((1, 0, -1)))
    )
    assert doc == {**want, "space": "Fl3", "facet_count": 6}


def test_polytope_gr24_diamond_report(capsys):
    code, out, _ = run(capsys, "polytope", "Gr24", "--lam", "1", "--at", "0.3,0.3,0.3,0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["diamonds"] == [[2, 1]]
    assert doc["fiber"]["kind"] == "U2"
    assert doc["fiber"]["lagrangian"] is True


def test_polytope_diamonds_and_fiber_agree_in_the_tolerance_band(capsys):
    # diamonds chained their tolerance from one corner and found [2, 1]
    # here, while the S^3 row compared each entry with 0 within one GC_TOL
    # and printed unknown-nonsmooth
    code, out, _ = run(capsys, "polytope", "Fl3", "--at", "1e-8,1e-8,2e-8")
    assert code == 0
    doc = json.loads(out)
    assert doc["diamonds"] == [[2, 1]]
    fiber = doc["fiber"]
    assert (fiber["kind"], fiber["real_dimension"], fiber["lagrangian"]) == ("S3", 3, True)


def test_polytope_at_accepts_rationals(capsys):
    code, out, err = run(capsys, "polytope", "Fl3", "--at", "1/2,-1/2,0")
    assert (code, err) == (0, "")
    assert out == run(capsys, "polytope", "Fl3", "--at", "0.5,-0.5,0")[1]


def test_polytope_gr25_facets_and_csv(capsys):
    code, out, _ = run(capsys, "polytope", "Gr25", "--lam", "1")
    assert code == 0
    assert json.loads(out)["facet_count"] == 9
    code, out, _ = run(capsys, "polytope", "Gr25", "--lam", "1", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "inequality,facet"
    assert len(lines) == 13


def test_polytope_outside_point_is_invalid_input(capsys):
    code, _, err = run(capsys, "polytope", "Fl3", "--at", "5,0,0")
    assert code == 2
    assert "not in the polytope" in err


def test_polytope_non_finite_point_is_invalid_input(capsys):
    # a NaN slack is neither below -GC_TOL nor within it, so a NaN point
    # once counted as inside and came out as a torus fiber with exit 0
    code, out, err = run(capsys, "polytope", "Gr24", "--lam", "1", "--at", "nan,nan,nan,nan")
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_cli_import_runs_no_numeric_layer():
    # `import gcfloer.cli` runs on every command: numpy and the numeric
    # layers must wait for a command that uses them (a cold call pays for
    # whatever this import executes)
    code = (
        "import json, sys, gcfloer.cli; "
        "print(json.dumps(['numpy' in sys.modules, "
        "[n for n in ('gc_core', 'laurent', 'potential', 'qh', 'numerics', 'floer', "
        "'verify') "
        "if type(sys.modules['gcfloer.' + n]).__name__ != '_LazyModule']]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    assert json.loads(proc.stdout) == [False, []]


def test_potential_terms(capsys):
    code, out, _ = run(capsys, "potential", "Gr25", "--lam", "1")
    assert code == 0
    assert len(json.loads(out)["terms"]) == 9


@pytest.mark.parametrize("command", ["polytope", "potential", "match"])
def test_profile_beyond_the_floats_is_invalid_input(capsys, command):
    # the block value 2 lam = 2e308 has no float; float() raised OverflowError
    # and the CLI exited 1 with a traceback
    code, out, err = run(capsys, command, "Gr24", "--lam", "1e308")
    assert code == 2
    assert out == ""
    assert "exceeds the largest float" in err


@pytest.mark.parametrize("flags", [("--l2", "1e300", "--T0", "0.5"), ("--T0", "5e-324")])
def test_match_fl3_overflow_is_invalid_input(capsys, flags):
    # T0^-l2 overflowed in fl3_critical_points: exit 1 with a traceback
    code, out, err = run(capsys, "match", "Fl3", *flags)
    assert code == 2
    assert out == ""
    assert "overflow the doubles" in err


def test_critical_underflowing_coefficient_is_invalid_input(capsys):
    # T0^709 underflows to 0.0 at T0 = 1e-12, so Newton solved another
    # potential: 79 "points", one with residual 4.6e171, NaN in stdout, exit 0
    argv = ("critical", "Fl3", "--l2", "709", "--starts", "200", "--seed", "10")
    code, out, err = run(capsys, *argv, "--T0", "1e-12")
    assert code == 2
    assert out == ""
    assert "0 or not finite" in err
    # where every coefficient is a double the output stays strict JSON
    code, out, _ = run(capsys, *argv, "--T0", "1/2")
    assert code == 0
    assert strict_json(out)["critical_points"]


def _call(argv):
    """main(argv) with stdout and stderr captured; argparse's exit is a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_EDGE_VALUES = ("0", "-1", "-1/2", "1", "3/10", "2", "5e-324", "1e308", "-1e308", "nan",
                "inf", "-inf", "1/0")


def test_polytope_and_potential_edge_values(deadline):
    # exact and float-only paths alike: every input is an answer (exit 0,
    # strict JSON) or invalid input (exit 2), never a traceback
    @settings(max_examples=80, deadline=None)
    @example("polytope", "Gr24", {"--lam": "1e308"}, None)  # once exit 1, OverflowError
    @example("potential", "Gr24", {"--lam": "1e308"}, None)
    @given(
        command=st.sampled_from(["polytope", "potential"]),
        space=st.sampled_from(sorted(SPACES)),
        flags=st.dictionaries(st.sampled_from(["--l1", "--l2", "--lam"]),
                              st.sampled_from(_EDGE_VALUES)),
        at=st.none() | st.lists(st.sampled_from(_EDGE_VALUES), min_size=3, max_size=6),
    )
    def check(command, space, flags, at):
        argv = [command, space, *(x for item in flags.items() for x in item)]
        if at is not None and command == "polytope":
            argv += ["--at", ",".join(at)]
        code, out, err = _call(argv)
        assert code in (0, 2), (argv, err)
        assert "Traceback" not in err
        if code == 0:
            strict_json(out)

    with deadline(1.0):
        check()


# the flags each solver command takes a value for, besides its space
_SOLVER_FLAGS = {
    "critical": ("--l1", "--l2", "--lam", "--T0"),
    "match": ("--l1", "--l2", "--lam", "--T0"),
    "qh": ("--q", "--q1", "--q2"),
    "floer": ("--l1", "--l2", "--lam", "--t", "--x-re", "--x-im"),
}


def test_solver_commands_at_edge_values(deadline):
    # the homotopy at hostile T0 and lambda, qh at hostile q, match and
    # floer: every input is an answer (exit 0, strict JSON), invalid input
    # (exit 2) or non-convergence (exit 3), never a traceback
    @settings(max_examples=80, deadline=None)
    @example("critical", "Fl3", {"--T0": "5e-324"}, "40")
    @example("match", "Gr25", {"--lam": "1e308"}, None)  # once exit 0 on zeros
    @example("match", "Gr24", {"--lam": "400", "--T0": "1/100"}, None)
    @example("qh", "Gr24", {"--q": "1e308"}, None)  # once numpy's message
    @given(
        command=st.sampled_from(sorted(_SOLVER_FLAGS)),
        space=st.sampled_from(sorted(SPACES)),
        flags=st.dictionaries(st.sampled_from(sorted({f for v in _SOLVER_FLAGS.values() for f in v})),
                              st.sampled_from(_EDGE_VALUES)),
        extra=st.sampled_from([None, "1", "40", "--pair", "--ring=Lambda"]),
    )
    def check(command, space, flags, extra):
        argv = [command, space]
        argv += [x for flag, value in flags.items() if flag in _SOLVER_FLAGS[command]
                 for x in (flag, value)]
        if command == "critical" and extra in ("1", "40"):
            argv += ["--starts", extra]
        elif command == "floer" and extra in ("--pair", "--ring=Lambda"):
            argv.append(extra)
        code, out, err = _call(argv)
        assert code in (0, 2, 3), (argv, err)
        assert "Traceback" not in err
        if code == 0:
            strict_json(out)

    with deadline(1.5):
        check()


def test_critical_deterministic_and_verified(capsys):
    args = ("critical", "Fl3", "--l1", "1", "--l2", "1", "--T0", "1/2",
            "--seed", "0", "--starts", "150", "--verify-known")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2  # byte-stable for fixed seed/flags
    doc = json.loads(out1)
    assert len(doc["critical_points"]) == 6
    assert all(cf["max_residual"] < 1e-9 for cf in doc["closed_form"])
    assert all(abs(h) > 1e-10 for h in doc["hessian_dets"])


def test_critical_without_converged_start_exits_3(capsys):
    # one start cannot find the 8 critical points of the generic potential
    code, out, err = run(capsys, "critical", "Fl3", "--starts", "1", "--seed", "10")
    assert code == 3
    assert out == ""
    assert "the start solve found 1 of the 8 critical points" in err


def test_start_budget_below_the_volume_exits_3(capsys):
    # Gr25's generic potential has 20 critical points: 10 starts are too few
    code, out, err = run(capsys, "critical", "Gr25", "--starts", "10")
    assert code == 3
    assert out == ""
    assert "of the 20 critical points" in err


def test_critical_with_only_degenerate_limits_exits_3(capsys, monkeypatch):
    from gcfloer import potential

    monkeypatch.setattr(potential, "DEGENERATE_DET", 10.0)
    code, out, err = run(capsys, "critical", "Fl3", "--starts", "50")
    assert code == 3
    assert out == ""
    assert "degenerate Hessian" in err


def test_critical_negative_seed_exits_2(capsys):
    code, out, err = run(capsys, "critical", "Fl3", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "expected non-negative integer" in err


_SEED_FREE = {
    "Fl3": (6, "--l1", "1", "--l2", "1", "--starts", "400"),
    "Gr24": (4, "--lam", "1", "--starts", "400"),
    "Gr25": (10, "--lam", "1", "--starts", "900"),
}


@pytest.mark.parametrize("space", sorted(_SEED_FREE))
def test_critical_output_does_not_depend_on_the_seed(capsys, space):
    # each point is polished from a grid point, so every seed that finds
    # every point prints the same bytes
    count, *flags = _SEED_FREE[space]
    outs = set()
    for seed in range(10):
        code, out, _ = run(capsys, "critical", space, *flags, "--seed", str(seed))
        assert code == 0
        outs.add(out.replace(f'"seed": {seed},', ""))
    assert len(outs) == 1
    points = json.loads(outs.pop())["critical_points"]
    assert len(points) == count
    assert all(p["residual"] < 1e-13 for p in points)
    if space == "Fl3":
        got = np.array([[complex(z["re"], z["im"]) for z in p["y"]] for p in points])
        near = np.abs(got[:, None] - np.array(fl3_critical_points(1, 1, 0.5))).max(axis=2) < 1e-12
        assert (near.sum(axis=0) == 1).all() and (near.sum(axis=1) == 1).all()


def test_critical_zero_starts_exits_2(capsys):
    code, out, err = run(capsys, "critical", "Fl3", "--starts", "0")
    assert code == 2
    assert out == ""
    assert "starts" in err


def test_qh_gr24_double_zero(capsys):
    code, out, _ = run(capsys, "qh", "Gr24", "--q", "1/16")
    assert code == 0
    eigs = [complex(re, im) for re, im in json.loads(out)["eigenvalues"]]
    zeros = [v for v in eigs if abs(v) < 1e-9]
    assert len(eigs) == 6 and len(zeros) == 2
    # ordered by (real, imag), parts equal in exact arithmetic comparing equal
    r = 2 * np.sqrt(2)
    assert np.abs(np.array(eigs) - [-r, -r * 1j, 0, 0, r * 1j, r]).max() < 1e-9


@pytest.mark.parametrize("argv", [("Fl3", "--q", "1/2"), ("Gr24", "--q1", "1/2"),
                                  ("Gr25", "--q2", "3")])
def test_qh_rejects_a_flag_of_another_space(capsys, argv):
    code, out, err = run(capsys, "qh", *argv)
    assert code == 2 and out == ""
    assert f"not {argv[1]}" in err


def test_qh_unset_own_flags_default_to_one(capsys):
    for short, full in ((("Fl3",), ("Fl3", "--q1", "1", "--q2", "1")),
                        (("Fl3", "--q2", "1/3"), ("Fl3", "--q1", "1", "--q2", "1/3")),
                        (("Gr25",), ("Gr25", "--q", "1"))):
        assert run(capsys, "qh", *short) == run(capsys, "qh", *full)


def test_match_subcommands(capsys):
    for args in (
        ("match", "Gr25", "--lam", "1", "--T0", "3/5"),
        ("match", "Fl3", "--l1", "2", "--l2", "1", "--T0", "1/2"),
        ("match", "Gr24", "--lam", "1", "--T0", "1/2"),
    ):
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert json.loads(out)["matched"] is True


@pytest.mark.parametrize("space", ["Gr24", "Fl3"])
def test_match_rejects_base_value_outside_unit_interval(capsys, space):
    # T0 = 0 made every Gr24 critical value 0 and reported a match, and
    # reached Fl3's exit 2 only through a ZeroDivisionError
    code, out, err = run(capsys, "match", space, "--T0", "0")
    assert code == 2
    assert out == ""
    assert err == "error: T0 must lie in (0, 1)\n"


@pytest.mark.parametrize("space,lam", [("Gr24", "0"), ("Gr24", "-1"), ("Gr25", "0")])
def test_match_rejects_profile_that_does_not_drop(capsys, space, lam):
    # these profiles have no strict drop at step 2, yet each exited 0 with
    # matched: true
    code, out, err = run(capsys, "match", space, "--lam", lam)
    assert code == 2
    assert out == ""
    assert err == "error: profile must drop strictly at step 2\n"


def test_match_c1_checks_the_profile_itself():
    # not only through a space's closed forms, which may not check it
    space = dataclasses.replace(SPACES["Gr24"], critical_values=lambda p, T0: [0j] * 4)
    with pytest.raises(ValueError, match="drop strictly at step 2"):
        space.match_c1(SimpleNamespace(lam=0), 0.5, 1e-7)


@pytest.mark.parametrize("flags", [
    ("Gr25", "--lam", "1e308"),  # every value was 0
    ("Gr25", "--lam", "800", "--T0", "1/100"),  # the largest |value| was 8.1e-320
    ("Gr24", "--lam", "400", "--T0", "1/100"),
])
def test_match_rejects_an_underflowing_q(capsys, flags):
    # q = T0^gap below the normal floats made every critical value and c1
    # eigenvalue 0 or subnormal, and exit 0 with "matched": true
    code, out, err = run(capsys, "match", *flags)
    assert code == 2
    assert out == ""
    assert "0 or subnormal" in err


@pytest.mark.parametrize("argv, named", [
    (("Gr24", "--q", "1e308"), "--q too large"),
    (("Fl3", "--q1", "1e308", "--q2", "1"), "--q1 too large"),
    (("Fl3", "--q1", "1e200", "--q2", "1e200"), "--q1, --q2 too large"),  # q1 q2 overflows
    (("Gr24", "--q", "1" + "0" * 400), "--q too large"),  # once exit 1, OverflowError
])
def test_qh_rejects_a_q_that_overflows_c1(capsys, argv, named):
    # c1's entries overflowed to inf: numpy's "Array must not contain infs
    # or NaNs" after a RuntimeWarning, which now raises here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, "qh", *argv)
    assert code == 2
    assert out == ""
    assert named in err and "exceeds the largest float" in err
    # just below the overflow c1 is finite and so are its eigenvalues
    code, out, _ = run(capsys, "qh", "Gr24", "--q", "4e307")
    assert code == 0
    assert strict_json(out)["eigenvalues"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_match_rejects_non_positive_or_non_finite_tol(capsys, tol):
    code, out, err = run(capsys, "match", "Gr25", "--tol", tol)
    assert code == 2
    assert out == ""
    assert "tol must be a positive finite number" in err


def test_floer_overflowing_holonomy_is_invalid_input(capsys):
    # e^1000 overflowed to inf and the torsion came out [3/2, 3/2]
    code, out, err = run(capsys, "floer", "Gr24", "--lam", "1", "--t", "1/2",
                         "--x-re", "1000")
    assert code == 2
    assert out == ""
    assert "overflows" in err


def test_floer_holonomy_modulus_overflow_is_invalid_input(capsys):
    # both parts of e^x are finite here but |e^x| is not; NovikovSeries died
    # in abs() with an OverflowError and the CLI exited 1 with a traceback
    for x_re in ("709.7827128933841", "-709.7827128933841"):
        code, out, err = run(capsys, "floer", "Gr24", "--lam", "1", "--t", "1/2",
                             "--x-re", x_re, "--x-im", "1/2")
        assert code == 2
        assert out == ""
        assert "overflows" in err


@pytest.mark.parametrize("command", [("match", "Gr25"), ("floer", "Fl3")])
def test_json_only_subcommands_reject_format(capsys, command):
    # match and floer print JSON only; --format csv was accepted and ignored
    with pytest.raises(SystemExit) as exc:
        main([*command, "--format", "csv"])
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == ""
    assert "--format" in out.err


def test_floer_fl3(capsys):
    code, out, _ = run(capsys, "floer", "Fl3", "--l1", "3/10", "--l2", "7/10")
    assert code == 0
    doc = json.loads(out)
    assert doc["decomposition"] == {"free_rank": 0, "torsion": [[3, 10]]}
    assert doc["lambda_rank"] == 0


def test_floer_fl3_equal_weights(capsys):
    # the + sign of m1_fl3 makes the entry 2T, not 0
    code, out, _ = run(capsys, "floer", "Fl3", "--l1", "1", "--l2", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [[[], [[1, 1, 2.0, 0.0]]], [[], []]]
    assert doc["decomposition"] == {"free_rank": 0, "torsion": [[1, 1]]}


def test_floer_gr24_lambda_free_rank(capsys):
    code, out, _ = run(
        capsys, "floer", "Gr24", "--lam", "1", "--t", "0",
        "--x-im", "1.5707963267948966", "--ring", "Lambda",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["decomposition"]["free_rank"] == 4


def test_floer_gr24_small_gap_finishes(capsys, deadline):
    with deadline(5.0):
        code, out, _ = run(capsys, "floer", "Gr24", "--lam", "1", "--t", "1/1000")
    assert code == 0
    doc = json.loads(out)
    assert doc["decomposition"]["torsion"] == [[999, 1000], [999, 1000]]
    assert doc["warnings"] == []


def test_floer_pair(capsys):
    code, out, _ = run(capsys, "floer", "Gr24", "--lam", "1", "--pair")
    assert code == 0
    doc = json.loads(out)
    assert doc["decomposition"]["torsion"] == [[1, 1], [1, 1]]


@pytest.mark.parametrize("argv", [
    ("Gr24", "--lam", "10", "--t", "0"),  # exact answer: torsion [10, 10]
    ("Gr24", "--lam", "10", "--pair"),  # exact answer: torsion [10, 10]
    ("Fl3", "--l1", "12", "--l2", "11"),  # exact answer: torsion [11]
])
def test_floer_entry_at_truncation_is_invalid_input(capsys, argv):
    # the leading term sat at or above T^10, was cut, and d = 0 came out as
    # free rank with exit 0
    code, out, err = run(capsys, "floer", *argv)
    assert code == 2
    assert out == ""
    assert "truncation" in err


def test_floer_cut_above_valuation_keeps_the_answer(capsys):
    # only the T^11 term of T^11 + T^1 is cut, so the valuation stays 1
    code, out, _ = run(capsys, "floer", "Gr24", "--lam", "6", "--t", "5")
    assert code == 0
    assert json.loads(out)["decomposition"] == {"free_rank": 0, "torsion": [[1, 1], [1, 1]]}


def test_floer_gr25_is_invalid_input(capsys):
    code, _, err = run(capsys, "floer", "Gr25")
    assert code == 2


def test_invalid_t_exits_2(capsys):
    code, _, err = run(capsys, "floer", "Gr24", "--lam", "1", "--t", "2")
    assert code == 2
    assert "lam" in err


def test_verify_all_fast(capsys):
    code, out, _ = run(capsys, "verify-all", "--fast")
    assert code == 0
    lines = [l for l in out.strip().splitlines() if l]
    assert len(lines) == 9
    assert all("PASS" in l for l in lines)
    # deterministically ordered by check id
    ids = [l.split()[0] for l in lines]
    assert ids == sorted(ids)
