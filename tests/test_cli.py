import csv
import hashlib
import io
import random
import string
from pathlib import Path

import pytest

from capmapf import solvers
from capmapf.cli import (
    BENCH_HEADER,
    EXIT_ERROR,
    EXIT_EXHAUSTED,
    EXIT_OK,
    main,
)
from capmapf.cnf import parse_dimacs

FIXTURES = Path(__file__).parent / "fixtures"
TINY_MAP = str(FIXTURES / "tiny.map")
TINY_SCEN = str(FIXTURES / "tiny.scen")
SWAP_SCEN = str(FIXTURES / "swap.scen")
UNIT_CNF = str(FIXTURES / "unit.cnf")
TINY_CAPS = str(FIXTURES / "tiny.caps")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_tiny(capsys):
    code, out, _ = run(capsys, "solve", "--map", TINY_MAP, "--scen", TINY_SCEN)
    assert code == EXIT_OK
    assert "cost=2" in out
    assert out.startswith("0: 0\n")


def test_solve_missing_map(capsys):
    code, _, err = run(capsys, "solve", "--scen", TINY_SCEN)
    assert code == EXIT_ERROR and "usage error" in err


def test_solve_bad_capacity(capsys):
    code, _, err = run(capsys, "solve", "--map", TINY_MAP, "--scen", TINY_SCEN,
                       "--capacity", "0")
    assert code == EXIT_ERROR and "capacity" in err


def test_solve_swap_exhausts(capsys):
    code, _, err = run(capsys, "solve", "--map", TINY_MAP, "--scen", SWAP_SCEN,
                       "--solver", "lazy", "--timeout", "5")
    assert code == EXIT_EXHAUSTED
    assert "exhausted" in err


def test_solve_swap_capacity_two(capsys):
    code, out, _ = run(capsys, "solve", "--map", TINY_MAP, "--scen", SWAP_SCEN,
                       "--capacity", "2")
    assert code == EXIT_OK
    assert "cost=4" in out


def test_no_follow_requires_eager(capsys):
    code, _, err = run(capsys, "solve", "--map", TINY_MAP, "--scen", TINY_SCEN,
                       "--solver", "lazy", "--no-follow")
    assert code == EXIT_ERROR and "no-follow" in err


def test_solve_capacity_file(capsys, tmp_path):
    caps = tmp_path / "caps.txt"
    caps.write_text("uniform(2)\n")
    code, out, _ = run(capsys, "solve", "--map", TINY_MAP, "--scen", SWAP_SCEN,
                       "--capacity-file", str(caps))
    assert code == EXIT_OK and "cost=4" in out


def test_agents_takes_the_first_agents_of_the_scenario(capsys):
    # both agents of swap.scen cannot pass each other at capacity 1; the first alone can
    code, out, _ = run(capsys, "solve", "--map", TINY_MAP, "--scen", SWAP_SCEN, "--agents", "1")
    assert code == EXIT_OK and out == "0: 0\n1: 1\n2: 2\ncost=2 makespan=2\n"


def test_solve_unreachable_goal_is_unsolvable(capsys, tmp_path):
    walled = tmp_path / "walled.map"
    walled.write_text("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
    code, out, err = run(capsys, "solve", "--map", str(walled), "--scen", TINY_SCEN)
    assert code == EXIT_ERROR and "unsolvable" in err and out == ""


@pytest.mark.parametrize("count", ["-1", "0"])
def test_agents_below_one_is_usage_error(capsys, count):
    code, out, err = run(capsys, "solve", "--map", TINY_MAP, "--scen", SWAP_SCEN,
                         "--agents", count)
    assert code == EXIT_ERROR and "--agents must be >= 1" in err and out == ""


def test_solve_rejects_scenario_without_agents(capsys, tmp_path):
    scen = tmp_path / "empty.scen"
    scen.write_text("version 1\n")
    code, out, err = run(capsys, "solve", "--map", TINY_MAP, "--scen", str(scen))
    assert code == EXIT_ERROR and "no agents" in err and out == ""


def test_validate_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "--map", TINY_MAP, "--scen", TINY_SCEN)
    assert code == EXIT_OK
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(out)
    code, out, _ = run(capsys, "validate", "--map", TINY_MAP, "--scen", TINY_SCEN,
                       "--plan", str(plan_file))
    assert code == EXIT_OK and "valid" in out


def test_validate_rejects_bad_plan(capsys, tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("0: 0\n1: 2\n2: 2\ncost=2 makespan=2\n")
    code, out, _ = run(capsys, "validate", "--map", TINY_MAP, "--scen", TINY_SCEN,
                       "--plan", str(plan_file))
    assert code == EXIT_ERROR
    assert "not_edge" in out


def test_validate_rejects_wrong_summary(capsys, tmp_path):
    code, out, _ = run(capsys, "solve", "--map", TINY_MAP, "--scen", TINY_SCEN)
    assert code == EXIT_OK and "cost=2 makespan=2" in out
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(out.replace("cost=2", "cost=999"))
    code, out, _ = run(capsys, "validate", "--map", TINY_MAP, "--scen", TINY_SCEN,
                       "--plan", str(plan_file))
    assert code == EXIT_ERROR and "wrong_summary" in out and "valid\n" not in out


def test_validate_out_of_range_vertex(capsys, tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("0: 99\n1: 2\n")
    code, out, _ = run(capsys, "validate", "--map", TINY_MAP, "--scen", TINY_SCEN,
                       "--plan", str(plan_file))
    assert code == EXIT_ERROR and "not_vertex" in out


def test_validate_rejects_out_of_sequence_labels(capsys, tmp_path):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text("5: 0\n2: 1\n0: 2\n")
    code, out, err = run(capsys, "validate", "--map", TINY_MAP, "--scen", TINY_SCEN,
                         "--plan", str(plan_file))
    assert code == EXIT_ERROR and "step label 5 out of sequence" in err and "valid" not in out


@pytest.mark.parametrize("rows, line, token", [
    ("0: 0 x\n1: 2 1\n", 1, "x"),
    ("0: 0 1\na: 0\n", 2, "a"),
])
def test_validate_names_the_line_of_a_non_integer_token(capsys, tmp_path, rows, line, token):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(rows)
    code, out, err = run(capsys, "validate", "--map", TINY_MAP, "--scen", TINY_SCEN,
                         "--plan", str(plan_file))
    assert code == EXIT_ERROR and f"line {line}: " in err and repr(token) in err and out == ""


@pytest.mark.parametrize("argv", [
    ["solve", "--map", TINY_MAP, "--scen", TINY_SCEN, "--capacity", "two"],
    ["bench", "--grid", "8by8"],
    ["solve", "--solver", "magic"],
    ["no-such-command"],
    ["solve", "--map", TINY_MAP, "--scen", TINY_SCEN, "--timeout", "nan"],
    ["solve", "--map", TINY_MAP, "--scen", TINY_SCEN, "--timeout", "-1"],
    ["bench", "--grid", "3x3", "--agent-counts", "2", "--capacities", "1", "--timeout", "0"],
    ["bench", "--count", "-1"],
    ["bench", "--count", "0"],
    ["sat", UNIT_CNF, "--timeout", "nan"],
    ["bench", "--agent-counts", ","],
    ["bench", "--capacities", ","],
    ["bench", "--grid", "-3x3"],
    ["bench", "--grid", "0x3"],
    ["solve", "--map", TINY_MAP, "--scen", SWAP_SCEN, "--agents", "3"],
    ["solve", "--map", TINY_MAP, "--scen", TINY_SCEN, "--capacity", "2",
     "--capacity-file", TINY_CAPS],
    ["bench", "--grid", "3x3", "--agent-counts", "2", "--solvers", "eager,lazyy"],
    ["bench", "--grid", "3x3", "--agent-counts", "2", "--solvers", "magic"],
    ["bench", "--grid", "3x3", "--agent-counts", "2", "--solvers", ""],
    ["bench", "--grid", "3x3", "--agent-counts", "2", "--solvers", ","],
    # a bad cell after good ones fails before the good ones are solved
    ["bench", "--grid", "8x8", "--count", "3", "--agent-counts", "20", "--capacities", "1,0"],
    ["bench", "--grid", "3x3", "--count", "1", "--agent-counts", "2,0", "--capacities", "1"],
    ["bench", "--grid", "3x3", "--count", "1", "--agent-counts", "2,10", "--capacities", "1"],
])
def test_malformed_flag_exits_error(capsys, monkeypatch, argv):
    """Rejected before any solving starts."""
    solved = []

    def solve(*args, **kwargs):
        solved.append(args)
        return solvers.SolveReport(solvers.EXHAUSTED)

    monkeypatch.setattr(solvers, "solve", solve)
    code, _, err = run(capsys, *argv)
    assert code == EXIT_ERROR and "error" in err and solved == []


def test_help_exits_ok(capsys):
    code, out, _ = run(capsys, "solve", "--help")
    assert code == EXIT_OK and "--solver" in out


def test_export_cnf_then_sat(capsys, tmp_path):
    out_file = tmp_path / "f.cnf"
    code, _, _ = run(capsys, "export-cnf", "--map", TINY_MAP, "--scen", TINY_SCEN,
                     "-o", str(out_file))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "sat", str(out_file))
    assert code == EXIT_OK
    assert "s SATISFIABLE" in out
    assert out.splitlines()[1].startswith("v ") and out.rstrip().endswith(" 0")


def test_sat_prints_a_model_of_the_file(capsys, tmp_path):
    out_file = tmp_path / "f.cnf"
    code, _, _ = run(capsys, "export-cnf", "--map", TINY_MAP, "--scen", TINY_SCEN,
                     "-o", str(out_file))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "sat", str(out_file))
    assert code == EXIT_OK
    status, values = out.splitlines()
    assert status == "s SATISFIABLE" and values.startswith("v ")
    *model, end = (int(tok) for tok in values.split()[1:])
    assert end == 0
    formula = parse_dimacs(out_file.read_text(encoding="utf-8"))
    assert sorted(abs(lit) for lit in model) == list(range(1, formula.variable_count + 1))
    true = set(model)  # each variable's literal that the model makes true
    assert all(any(lit in true for lit in clause) for clause in formula.clauses)


def test_export_cnf_swap_unsat(capsys, tmp_path):
    out_file = tmp_path / "f.cnf"
    code, _, _ = run(capsys, "export-cnf", "--map", TINY_MAP, "--scen", SWAP_SCEN,
                     "--xi", "6", "-o", str(out_file))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "sat", str(out_file))
    assert code == EXIT_OK and "s UNSATISFIABLE" in out


def test_export_cnf_basic_relaxes_swap(capsys, tmp_path):
    out_file = tmp_path / "f.cnf"
    code, _, _ = run(capsys, "export-cnf", "--map", TINY_MAP, "--scen", SWAP_SCEN,
                     "--xi", "6", "--mode", "basic", "-o", str(out_file))
    assert code == EXIT_OK
    code, out, _ = run(capsys, "sat", str(out_file))
    assert code == EXIT_OK and "s SATISFIABLE" in out


def test_export_cnf_basic_rejects_no_follow(capsys, tmp_path):
    out_file = tmp_path / "f.cnf"
    code, _, err = run(capsys, "export-cnf", "--map", TINY_MAP, "--scen", TINY_SCEN,
                       "--mode", "basic", "--no-follow", "-o", str(out_file))
    assert code == EXIT_ERROR and "usage error" in err and "no-follow" in err
    assert not out_file.exists()


def test_export_cnf_stdout_has_key_comments(capsys):
    code, out, _ = run(capsys, "export-cnf", "--map", TINY_MAP, "--scen", TINY_SCEN)
    assert code == EXIT_OK
    assert "p cnf" in out and "c var 1 " in out


TINY_DIGEST = "19818d1b5a836cf3c99ee6579f38dbbf3743a910c706092d201de64b860a6507"
SWAP_RELAXED_DIGEST = "1809bbd0ccabe6d6719707e4c6e4bfd8153ad947fd9b3a1619c6e934394fa76c"
SWAP_C1_DIGEST = "2cdc22831243eaf085dbec97249412e43710c63f9f07c8aae2960a1ddf495020"


# sha256 of what `export-cnf --xi auto` prints, labels included: any change
# to the numbering, the clauses, their order or the labels changes it. On
# `tiny.scen` no rule binds, so every mode prints one text; on `swap.scen`
# at capacity 1 the complete model's swap clauses set it apart.
@pytest.mark.parametrize("scen,capacity,flags,digest", [
    (TINY_SCEN, "1", (), TINY_DIGEST),
    (TINY_SCEN, "1", ("--mode", "basic"), TINY_DIGEST),
    (TINY_SCEN, "1", ("--no-follow",), TINY_DIGEST),
    (TINY_SCEN, "2", (), TINY_DIGEST),
    (TINY_SCEN, "2", ("--mode", "basic"), TINY_DIGEST),
    (TINY_SCEN, "2", ("--no-follow",), TINY_DIGEST),
    (SWAP_SCEN, "1", (), SWAP_C1_DIGEST),
    (SWAP_SCEN, "1", ("--mode", "basic"), SWAP_RELAXED_DIGEST),
    (SWAP_SCEN, "1", ("--no-follow",), SWAP_C1_DIGEST),
    (SWAP_SCEN, "2", (), SWAP_RELAXED_DIGEST),
    (SWAP_SCEN, "2", ("--mode", "basic"), SWAP_RELAXED_DIGEST),
    (SWAP_SCEN, "2", ("--no-follow",), SWAP_RELAXED_DIGEST),
])
def test_export_cnf_matches_pinned_digest(capsys, scen, capacity, flags, digest):
    code, out, _ = run(capsys, "export-cnf", "--map", TINY_MAP, "--scen", scen,
                       "--capacity", capacity, "--xi", "auto", *flags)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def bench_args(**overrides):
    argv = ["bench", "--grid", "4x4", "--agent-counts", "2", "--capacities", "1,2",
            "--count", "2", "--seed", "7", "--timeout", "5"]
    for flag, value in overrides.items():
        argv += [flag, value]
    return argv


def test_bench_csv_shape(capsys, monkeypatch):
    reports = []
    solve = solvers.solve

    def recording(instance, solver, *args, **kwargs):
        report = solve(instance, solver, *args, **kwargs)
        reports.append((str(instance.capacities[0]), solver, report.iterations))
        return report

    monkeypatch.setattr(solvers, "solve", recording)
    # k=5 so that one cell (c=1, seed 7) runs four cost bounds
    code, out, _ = run(capsys, *bench_args(**{"--agent-counts": "5"}))
    assert code == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0]) == BENCH_HEADER
    # 2 capacities x 2 reps x 2 solvers
    assert len(rows) == 8
    assert {r["solver"] for r in rows} == {"eager", "lazy"}
    for r in rows:
        assert r["outcome"] in ("solved", "unsolvable", "timeout")
        if r["outcome"] == "solved":
            assert int(r["cost"]) >= 0 and float(r["time_s"]) >= 0
    # what the last bound added, and the sums over every bound (the solve's
    # totals), as each report gives them; 0 throughout for a report the root
    # settled (no bound encoded)
    expected = sorted(
        (c, solver, str(its[-1].variables if its else 0), str(its[-1].clauses if its else 0),
         str(sum(s.variables for s in its)), str(sum(s.clauses for s in its)))
        for c, solver, its in reports
    )
    got = sorted((r["capacity"], r["solver"], r["vars"], r["clauses"],
                  r["vars_total"], r["clauses_total"]) for r in rows)
    assert got == expected
    assert any(int(r["clauses_total"]) > int(r["clauses"]) for r in rows)


def test_bench_deterministic_modulo_time(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, *bench_args())
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        for r in rows:
            r.pop("time_s")
        outs.append(rows)
    assert outs[0] == outs[1]


def test_bench_rejects_zero_agents(capsys):
    code, out, err = run(capsys, "bench", "--grid", "3x3", "--agent-counts", "0",
                         "--capacities", "1", "--count", "1")
    assert code == EXIT_ERROR and "at least one agent" in err and out == ""


def test_bench_sorted_table(capsys):
    code, out, _ = run(capsys, *bench_args() + ["--sorted"])
    assert code == EXIT_OK
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[0] == "rank"
    assert set(header[1:]) <= {"eager_c1", "eager_c2", "lazy_c1", "lazy_c2"}
    for col in range(1, len(header)):
        times = [float(line.split(",")[col]) for line in lines[1:]
                 if line.split(",")[col]]
        assert times == sorted(times)


def test_sat_on_plain_dimacs(capsys, tmp_path):
    f = tmp_path / "u.cnf"
    f.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run(capsys, "sat", str(f))
    assert code == EXIT_OK and "s UNSATISFIABLE" in out


@pytest.mark.parametrize("comments", [
    "c var 1 X 0 0 0\nc var 2 X 0 0 0\n",  # one label on two variables
    "c var is the first literal\n",       # free text after `c var`
])
def test_sat_comments_never_change_the_cnf(capsys, tmp_path, comments):
    f = tmp_path / "c.cnf"
    f.write_text(comments + "p cnf 2 2\n1 2 0\n-1 2 0\n")
    code, out, _ = run(capsys, "sat", str(f))
    assert code == EXIT_OK and "s SATISFIABLE" in out


@pytest.mark.parametrize("text,values", [
    ("p cnf 0 0\n", "v 0"),  # no variables: the terminating 0 alone
    ("p cnf 2 2\n1 0\n-2 0\n", "v 1 -2 0"),
])
def test_sat_prints_the_exact_value_line(capsys, tmp_path, text, values):
    f = tmp_path / "v.cnf"
    f.write_text(text)
    code, out, _ = run(capsys, "sat", str(f))
    assert code == EXIT_OK and out == f"s SATISFIABLE\n{values}\n"


def test_sat_out_of_time_is_unknown(capsys, tmp_path):
    # six pigeons, five holes: UNSAT, and far beyond a microsecond of search
    pigeons, holes = 6, 5
    hole = [[p * holes + h + 1 for h in range(holes)] for p in range(pigeons)]
    clauses = hole + [[-hole[p][h], -hole[q][h]] for h in range(holes)
                      for p in range(pigeons) for q in range(p + 1, pigeons)]
    f = tmp_path / "php.cnf"
    f.write_text(f"p cnf {pigeons * holes} {len(clauses)}\n"
                 + "".join(" ".join(map(str, c)) + " 0\n" for c in clauses))
    code, out, _ = run(capsys, "sat", str(f), "--timeout", "0.000001")
    assert code == EXIT_EXHAUSTED and out == "s UNKNOWN\n"


def test_sat_rejects_truncated_dimacs(capsys, tmp_path):
    f = tmp_path / "t.cnf"
    f.write_text("p cnf 2 5\n1 0\n")
    code, out, err = run(capsys, "sat", str(f))
    assert code == EXIT_ERROR and "declares 5 clauses" in err and out == ""


def test_missing_file_reports_error(capsys):
    code, _, err = run(capsys, "solve", "--map", "/nonexistent.map",
                       "--scen", TINY_SCEN)
    assert code == EXIT_ERROR and "error" in err


FUZZ_ALPHABET = string.ascii_letters + string.digits + " \t\n.-#@():\u00e9\x00"


def _mutate(rng: random.Random, text: str) -> str:
    """1-4 random characters inserted, deleted or replaced."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        op = rng.choice("idr")
        if op == "i":
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(FUZZ_ALPHABET))
        elif chars and op == "d":
            del chars[rng.randrange(len(chars))]
        elif chars:
            chars[rng.randrange(len(chars))] = rng.choice(FUZZ_ALPHABET)
    return "".join(chars)


# the command that reads each fixture, given the path of its mutated copy
FUZZ_COMMANDS = {
    "tiny.map": lambda f: ["solve", "--map", f, "--scen", TINY_SCEN, "--timeout", "5"],
    "tiny.scen": lambda f: ["solve", "--map", TINY_MAP, "--scen", f, "--timeout", "5"],
    "tiny.caps": lambda f: ["solve", "--map", TINY_MAP, "--scen", TINY_SCEN,
                            "--capacity-file", f, "--timeout", "5"],
    "unit.cnf": lambda f: ["sat", f, "--timeout", "5"],
    "tiny.plan": lambda f: ["validate", "--map", TINY_MAP, "--scen", TINY_SCEN, "--plan", f],
}


@pytest.mark.parametrize("fixture", FUZZ_COMMANDS)
def test_mutated_inputs_exit_with_a_documented_code(capsys, tmp_path, fixture):
    """Seeded mutations of each input format end in an exit code, never a
    traceback, and mostly in exit 1, so they do reach the parser's checks."""
    argv = FUZZ_COMMANDS[fixture]
    rng = random.Random(fixture)
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    mutated = tmp_path / fixture
    codes = []
    for _ in range(100):
        mutated.write_text(_mutate(rng, text), encoding="utf-8")
        code, out, err = run(capsys, *argv(str(mutated)))
        assert code in (EXIT_OK, EXIT_ERROR, EXIT_EXHAUSTED)
        assert code != EXIT_ERROR or out or err  # an error is never silent
        codes.append(code)
    assert codes.count(EXIT_ERROR) > len(codes) // 2, codes
