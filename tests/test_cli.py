"""End-to-end CLI checks: verb wiring, verdict lines, exit codes, JSON shape.

Everything drives ``main(argv)`` in-process; one test execs the module to
confirm the installed surface agrees.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import threading

import pytest

import avasskit
from avasskit.cli import main
from avasskit.frontend import parse_formula, parse_machine, serialize_machine
from avasskit.presburger import evaluate
from avasskit.generators import build_pcp_machine, machine_m1, machine_m2, PCPInstance
from avasskit.machine import Configuration
from avasskit.prestar import compute_pre_star
from avasskit.semiset import from_json_obj


@pytest.fixture
def m1_file(tmp_path):
    path = tmp_path / "m1.cm"
    path.write_text(serialize_machine(machine_m1()))
    return str(path)


@pytest.fixture
def m2_file(tmp_path):
    path = tmp_path / "m2.cm"
    path.write_text(serialize_machine(machine_m2()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--version"])
    assert stop.value.code == 0
    assert "avasskit 0.1.0" in capsys.readouterr().out


def test_missing_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as stop:
        main([])
    assert stop.value.code == 3
    assert "error" in capsys.readouterr().err


def test_parse_echoes_canonical_form(capsys, m1_file):
    code, out, _ = run(capsys, "parse", m1_file)
    assert code == 0
    assert out == serialize_machine(machine_m1())


def test_parse_json_shape(capsys, m1_file):
    code, out, _ = run(capsys, "parse", m1_file, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["name"] == "m1" and obj["dimension"] == 1
    assert len(obj["transitions"]) == 4


def test_parse_json_bytes_of_a_guarded_machine(capsys, tmp_path):
    # a guard is written as its clause's JSON form, the one set results use
    path = tmp_path / "g.cm"
    path.write_text("machine g\ndim 1\nstate a init\nstate b\n"
                    "trans a -> b : x' = 1x + 1 ; guard [0..19] mod 2 = 1\n"
                    "trans b -> a : x' = 2x + 0 ; guard [5..]\n"
                    "trans b -> b : x' = 0x + 3\n")
    code, out, _ = run(capsys, "parse", str(path), "--json")
    assert code == 0
    payload = lambda a, b, guard: {"a": a, "b": b, "guard": guard, "kind": "affine1"}
    expected = {
        "dimension": 1, "initial": "a", "name": "g", "states": ["a", "b"],
        "transitions": [
            {"payload": payload(1, 1, {"hi": 19, "lo": 1, "mod": 2, "res": 1}),
             "source": "a", "target": "b"},
            {"payload": payload(2, 0, {"hi": None, "lo": 5, "mod": 1, "res": 0}),
             "source": "b", "target": "a"},
            {"payload": payload(0, 3, None), "source": "b", "target": "b"},
        ],
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_parse_error_exits_3_with_location(capsys, tmp_path):
    path = tmp_path / "bad.cm"
    path.write_text("machine broken\ndim 1\nstate q init\ntrans q -> nowhere : x' = 1x + 0\n")
    code, _, err = run(capsys, "parse", str(path))
    assert code == 3
    assert "error:" in err


def test_missing_file_exits_3(capsys):
    code, _, err = run(capsys, "parse", "/does/not/exist.cm")
    assert code == 3 and "error:" in err


def test_classify_text(capsys, m1_file):
    code, out, _ = run(capsys, "classify", m1_file)
    assert code == 0
    lines = out.splitlines()
    assert "avass: yes" in lines
    assert "vass: no" in lines
    assert "minsky: no" in lines


def test_classify_json(capsys, m1_file):
    code, out, _ = run(capsys, "classify", m1_file, "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["avass"] is True and obj["totally-positive-avass"] is False


def test_prestar_text_has_one_line_per_state(capsys, m1_file):
    code, out, _ = run(capsys, "prestar", m1_file, "--state", "q1", "--value", "19")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("q1: ") and lines[1].startswith("q2: ")
    assert "mod 3" in lines[0]


def test_prestar_json_matches_library(capsys, m1_file):
    code, out, _ = run(capsys, "prestar", m1_file, "--state", "q1", "--value", "19",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    direct = compute_pre_star(machine_m1(), Configuration("q1", (19,)))
    for state in ("q1", "q2"):
        assert from_json_obj(obj["sets"][state]).equal(direct.sets[state])
    assert obj["target"] == "q1:19" and obj["upward"] is False


def test_prestar_unknown_state_exits_3(capsys, m1_file):
    code, _, err = run(capsys, "prestar", m1_file, "--state", "zz", "--value", "0")
    assert code == 3 and "error:" in err


def test_prestar_on_a_ring_longer_than_the_recursion_limit(capsys, tmp_path):
    # the cycle walk keeps its own stack, so a ring of 1,100 states settles
    states = [f"s{i}" for i in range(1100)]
    path = tmp_path / "ring.cm"
    path.write_text("machine ring\ndim 1\n" +
                    "".join(f"state {q}\n" for q in states) +
                    "".join(f"trans {p} -> {q} : x' = 1x + 1\n"
                            for p, q in zip(states, states[1:] + states[:1])))
    assert len(states) > sys.getrecursionlimit()
    code, out, err = run(capsys, "prestar", str(path), "--state", "s0", "--value", "5")
    assert code == 0 and err == ""
    # s0 keeps 5; s_(1100-k) is k steps short of it, for k up to 5
    want = {"s0": 5} | {f"s{1100 - k}": 5 - k for k in range(1, 6)}
    assert out == "".join(f"{q}: [{want[q]}..{want[q]}] mod 1 = 0\n" if q in want
                          else f"{q}: empty\n" for q in states)
    # a value that goes round the whole ring twice: s0 is {100, 1200, 2300},
    # and s_i is {v <= 1200 + i : v = 100 + i mod 1100}
    code, out, err = run(capsys, "prestar", str(path), "--state", "s0", "--value", "2300")
    assert code == 0 and err == ""
    assert out == "s0: [100..2300] mod 1100 = 100\n" + "".join(
        f"s{i}: [{(100 + i) % 1100}..{1200 + i}] mod 1100 = {(100 + i) % 1100}\n"
        for i in range(1, 1100))


@pytest.mark.parametrize("transition,want", [
    ("x' = 1x + 1 ; guard [0..300000]", "q: [0..5] mod 1 = 0\n"),
    ("x' = 1x + 1 ; guard [0..190000]", "q: [0..5] mod 1 = 0\n"),
    ("x' = -1x + 1000000", "q: [5..999995] mod 999990 = 5\n"),
])
def test_prestar_finite_guards_answer(tmp_path, transition, want):
    # finite guards past GUARD_ENUM_CAP, and under it, are cut by the closed
    # forms, not walked start by start (which took minutes under the cap):
    # the CLI runs in a child process with a timeout, so a regression fails
    # the test instead of hanging it
    path = tmp_path / "loop.cm"
    path.write_text(f"machine loop\ndim 1\nstate q init\ntrans q -> q : {transition}\n")
    root = os.path.dirname(os.path.dirname(avasskit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "avasskit.cli", "prestar", str(path), "--state", "q",
         "--value", "5"], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


@pytest.mark.parametrize("transitions,message", [
    ("trans q -> q : x' = 1x + -20011\ntrans q -> q : x' = 2x + 1\n",
     "growth-cycle residue analysis modulus 20011 over budget"),
])
def test_prestar_cycle_budgets_exit_4(capsys, tmp_path, transitions, message):
    path = tmp_path / "loop.cm"
    path.write_text("machine loop\ndim 1\nstate q init\n" + transitions)
    code, out, err = run(capsys, "prestar", str(path), "--state", "q", "--value", "5")
    assert (code, out, err) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("transition,value,message", [
    ("x' = 1x + -3", "1000000000000",
     "semilinear set mask of 1000000000004 bits over budget"),
    ("x' = 2x + -1000000000", "6", "semilinear set mask of 500000004 bits over budget"),
])
def test_prestar_mask_width_budget_exits_4(tmp_path, transition, value, message):
    # a set this wide would need masks of gigabytes: the CLI runs in a child
    # process under an address-space limit, so a regression fails the test
    # instead of exhausting memory
    path = tmp_path / "loop.cm"
    path.write_text(f"machine loop\ndim 1\nstate q init\ntrans q -> q : {transition}\n")
    root = os.path.dirname(os.path.dirname(avasskit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH"))))}
    limit = 1536 * 2 ** 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "avasskit.cli", "prestar", str(path), "--state", "q",
         "--value", value],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", f"error: {message}\n")


@pytest.mark.parametrize("value,code,out,err", [
    ("268435455", 0, "q: [268435455..268435455] mod 1 = 0\np: empty\n", ""),
    ("268435456", 4, "", "error: semilinear set mask of 268435457 bits over budget\n"),
])
def test_prestar_mask_width_budget_is_2_to_the_28(tmp_path, value, code, out, err):
    # the target {N} is N + 1 bits wide, so 2^28 - 1 is the largest value
    # answered; the widest answer takes a mask of 2^28 bits, so the CLI runs
    # in a child process under an address-space limit
    path = tmp_path / "one.cm"
    path.write_text("machine one\ndim 1\nstate q init\nstate p\ntrans q -> p : x' = 1x + 0\n")
    root = os.path.dirname(os.path.dirname(avasskit.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (root, os.environ.get("PYTHONPATH"))))}
    limit = 1536 * 2 ** 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run(
        [sys.executable, "-m", "avasskit.cli", "prestar", str(path), "--state", "q",
         "--value", value],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


@pytest.mark.parametrize("transition,value,want", [
    ("x' = 2x + -1000000000", "5", "q: [5..5] mod 1 = 0\n"),
    ("x' = 2x + -1000000", "6", "q: [6..500003] mod 499997 = 6\n"),
])
def test_prestar_growth_cycle_low_region_answers(capsys, tmp_path, transition, value, want):
    # the starts below the fixed point b are found by preimages along one
    # walk, in about log2(b) turns, not one by one
    path = tmp_path / "loop.cm"
    path.write_text(f"machine loop\ndim 1\nstate q init\ntrans q -> q : {transition}\n")
    code, out, err = run(capsys, "prestar", str(path), "--state", "q", "--value", value)
    assert (code, out, err) == (0, want, "")


def test_prestar_growth_cycle_over_far_apart_values_answers(capsys, tmp_path):
    # {6, 50003} is written as one progression of modulus 49,997; a bounded
    # clause sets no growth period, so the modulus cap is not reached
    path = tmp_path / "loop.cm"
    path.write_text("machine loop\ndim 1\nstate q init\ntrans q -> q : x' = 2x + -100000\n")
    code, out, err = run(capsys, "prestar", str(path), "--state", "q", "--value", "6")
    assert (code, out, err) == (0, "q: [6..50003] mod 49997 = 6\n", "")


def test_prestar_growth_cycle_reads_no_period_for_a_finite_set(capsys, tmp_path):
    # the guard's modulus 30,000 is past the growth period cap, but the set
    # {3} has no unbounded clause, so the period is never read
    path = tmp_path / "loop.cm"
    path.write_text("machine loop\ndim 1\nstate q init\n"
                    "trans q -> q : x' = 2x + 1 ; guard [0..] mod 30000 = 1\n")
    code, out, err = run(capsys, "prestar", str(path), "--state", "q", "--value", "3")
    assert (code, out, err) == (0, "q: [1..3] mod 2 = 1\n", "")


def test_prestar_long_translation_step_under_a_breaking_guard(capsys, tmp_path):
    # the guard's modulus 2 does not divide the step, so only one turn counts
    # and no class is walked: the step's size costs nothing
    path = tmp_path / "step.cm"
    path.write_text("machine step\ndim 1\nstate q init\n"
                    "trans q -> q : x' = 1x + -300001 ; guard [0..] mod 2 = 1\n")
    code, out, err = run(capsys, "prestar", str(path), "--state", "q", "--value", "5")
    assert (code, out, err) == (0, "q: [5..5] mod 1 = 0\n", "")


def test_prestar_long_translation_step_is_charged_its_class_turns(capsys, tmp_path):
    # {5} meets one class of the step in one turn; [5..] meets all 300,000
    # classes, a walk past the guard-enumeration budget
    path = tmp_path / "step.cm"
    path.write_text("machine step\ndim 1\nstate q init\ntrans q -> q : x' = 1x + -300000\n")
    code, out, err = run(capsys, "prestar", str(path), "--state", "q", "--value", "5")
    assert (code, out, err) == (0, "q: [5..] mod 300000 = 5\n", "")
    code, out, err = run(capsys, "prestar", str(path), "--state", "q", "--value", "5",
                         "--upward")
    assert code == 4 and out == ""
    assert err == ("error: translation step 300000 over budget: "
                   "a clause walk of 300000 class turns\n")


def test_reach_verdicts(capsys, m1_file):
    code, out, _ = run(capsys, "reach", m1_file, "--from", "q1:0", "--to", "q1:19")
    assert code == 0 and out.splitlines()[0] == "verdict: yes"
    code, out, _ = run(capsys, "reach", m1_file, "--from", "q1:10", "--to", "q1:19")
    assert code == 0 and out.splitlines()[0] == "verdict: no"


def test_reach_total_positive_route(capsys, tmp_path):
    path = tmp_path / "doubling.cm"
    path.write_text(
        "machine doubling\ndim 2\nstate q init\n"
        "trans q -> q : A = [[2,0],[0,1]] ; b = [1,1]\n")
    code, out, _ = run(capsys, "reach", str(path), "--total-positive",
                       "--from", "q:0,0", "--to", "q:7,3")
    assert code == 0 and out.strip() == "verdict: yes"
    code, out, _ = run(capsys, "reach", str(path), "--total-positive",
                       "--from", "q:0,0", "--to", "q:2,1")
    assert code == 0 and out.strip() == "verdict: no"


def test_cover_both_routes(capsys, m2_file):
    for extra in ([], ["--via-reduction"]):
        code, out, _ = run(capsys, "cover", m2_file,
                           "--from", "q1:1", "--to", "q1:19", *extra)
        assert code == 0 and out.splitlines()[0] == "verdict: yes"


def test_state_reach(capsys, m1_file):
    code, out, _ = run(capsys, "state-reach", m1_file, "--from", "q1:0",
                       "--state", "q2")
    assert code == 0 and out.strip() == "verdict: yes"


def test_wsts_no_with_witness(capsys, m1_file):
    code, out, _ = run(capsys, "wsts", m1_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: no"
    assert lines[1].startswith("witness: q1 -> q1")
    assert lines[2].startswith("counterexample: q1:")


def test_wsts_yes(capsys, m2_file):
    code, out, _ = run(capsys, "wsts", m2_file)
    assert code == 0 and out.strip() == "verdict: yes"


def test_wsts_json(capsys, m1_file):
    code, out, _ = run(capsys, "wsts", m1_file, "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj["verdict"] == "no" and "q1 -> q1" in obj["witness"]


def test_strong_mono(capsys, m1_file, tmp_path):
    # m1 (and m2) keep the order-reversing transition: per-step monotony fails.
    code, out, _ = run(capsys, "strong-mono", m1_file)
    assert code == 0 and out.splitlines()[0] == "verdict: no"
    plain = tmp_path / "drop.cm"
    plain.write_text("machine drop\ndim 1\nstate q init\ntrans q -> q : x' = 1x + -3\n")
    code, out, _ = run(capsys, "strong-mono", str(plain))
    assert code == 0 and out.strip() == "verdict: yes"


def test_wqo_verdicts(capsys, tmp_path):
    leq = tmp_path / "leq.pf"
    leq.write_text("vars x y\nx <= y\n")
    code, out, _ = run(capsys, "wqo", str(leq))
    assert code == 0 and out.strip() == "verdict: wqo"

    geq = tmp_path / "geq.pf"
    geq.write_text("vars x y\ny <= x\n")
    code, out, _ = run(capsys, "wqo", str(geq))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: not-wqo"
    assert lines[1].startswith("witness-head: ")

    strict = tmp_path / "lt.pf"
    strict.write_text("vars x y\nx < y\n")
    code, out, _ = run(capsys, "wqo", str(strict))
    assert code == 0 and out.splitlines()[0] == "verdict: not-quasi-ordering"


def test_wqo_json_witness_head(capsys, tmp_path):
    geq = tmp_path / "geq.pf"
    geq.write_text("vars x y\ny <= x\n")
    code, out, _ = run(capsys, "wqo", str(geq), "--json")
    obj = json.loads(out)
    assert code == 0 and obj["verdict"] == "not-wqo"
    head = obj["witness-head"]
    assert len(head) == 8
    # no pair of the emitted sequence may relate under the tested ordering
    relation = parse_formula("y <= x")
    for i, a in enumerate(head):
        for b in head[i + 1:]:
            assert not evaluate(relation, {"x": a, "y": b})


def test_functional_verdicts(capsys, tmp_path):
    fun = tmp_path / "fun.cm"
    fun.write_text("machine f\ndim 1\nstate q init\ntrans q -> q : formula 2x' = x\n")
    code, out, _ = run(capsys, "functional", str(fun))
    assert code == 0 and out.strip() == "verdict: yes"

    loose = tmp_path / "loose.cm"
    loose.write_text("machine g\ndim 1\nstate q init\ntrans q -> q : formula x <= x'\n")
    code, out, _ = run(capsys, "functional", str(loose))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: no" and lines[1].startswith("not functional: q -> q")


def test_functional_arity_exit_4(capsys, tmp_path):
    wide = tmp_path / "wide.cm"
    wide.write_text("machine w\ndim 2\nstate q init\n"
                    "trans q -> q : formula x1' = x1 and x2' = x2\n")
    code, _, err = run(capsys, "functional", str(wide))
    assert code == 4 and "error:" in err


def test_gen_examples_round_trip(capsys):
    code, out, _ = run(capsys, "gen", "examples")
    assert code == 0
    chunks = [c for c in out.split("# ") if c.strip()]
    assert len(chunks) == 3
    first = chunks[0].split("\n", 1)[1]
    assert parse_machine(first) == machine_m1()


def test_gen_pcp_matches_builder(capsys):
    code, out, _ = run(capsys, "gen", "pcp", "--tiles", "1:101,10:00,011:11")
    assert code == 0
    body = out.split("\n", 1)[1]
    built = build_pcp_machine(PCPInstance((("1", "101"), ("10", "00"), ("011", "11"))))
    assert parse_machine(body) == built


def test_gen_n1_defaults_halt_to_last_state(capsys, tmp_path):
    src = tmp_path / "mm.cm"
    src.write_text("machine mm\ndim 2\nstate a init\nstate b\n"
                   "trans a -> b : inc 1\n")
    code, out, _ = run(capsys, "gen", "n1", "--minsky", str(src))
    assert code == 0
    built = parse_machine(out.split("\n", 1)[1])
    assert built.flavor == "relational"
    # halt edge targets the last declared state
    assert built.transitions[-1].target == "b"


def test_gen_n2_name_override(capsys, tmp_path):
    src = tmp_path / "mm.cm"
    src.write_text("machine mm\ndim 2\nstate a init\ntrans a -> a : zero? 1\n")
    code, out, _ = run(capsys, "gen", "n2", "--minsky", str(src), "--name", "big")
    assert code == 0
    built = parse_machine(out.split("\n", 1)[1])
    assert built.name == "big" and built.dimension == 4


def test_gen_missing_input_exits_3(capsys):
    code, _, err = run(capsys, "gen", "n1")
    assert code == 3 and "needs --minsky" in err
    code, _, err = run(capsys, "gen", "pcp")
    assert code == 3 and "needs --tiles" in err


def test_gen_bad_tiles_exit_3(capsys):
    code, _, err = run(capsys, "gen", "pcp", "--tiles", "1:0:1")
    assert code == 3
    code, _, err = run(capsys, "gen", "pcp", "--tiles", "2:0")
    assert code == 3


def test_sim_post_lists_closure(capsys, m1_file):
    code, out, _ = run(capsys, "sim", m1_file, "--from", "q1:10")
    assert code == 0
    assert out.splitlines() == ["q1:10", "q1:9", "truncated: no"]


def test_sim_post_json(capsys, m1_file):
    code, out, _ = run(capsys, "sim", m1_file, "--from", "q1:10", "--json")
    obj = json.loads(out)
    assert code == 0
    assert obj == {"configs": ["q1:10", "q1:9"], "truncated": False}


def test_sim_path_search(capsys, m1_file):
    code, out, _ = run(capsys, "sim", m1_file, "--from", "q1:0", "--pre", "q1:19")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "verdict: yes"
    assert lines[2].startswith("path: q1:0 -> ") and lines[2].endswith("q1:19")


def test_sim_path_upward(capsys, m2_file):
    code, out, _ = run(capsys, "sim", m2_file, "--from", "q1:1",
                       "--pre", "q1:19", "--upward", "--max-value", "64")
    assert code == 0 and out.splitlines()[0] == "verdict: yes"


def test_sim_budget_flags(capsys, m1_file):
    code, out, _ = run(capsys, "sim", m1_file, "--from", "q1:0",
                       "--pre", "q1:19", "--max-value", "5")
    assert code == 0
    assert out.splitlines()[0] == "verdict: no"
    assert "truncated: yes" in out


def test_module_entry_point_runs():
    # run the same package this session imported, installed or not
    root = os.path.dirname(os.path.dirname(avasskit.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "avasskit.cli", "--version"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "avasskit 0.1.0" in proc.stdout


def test_main_runs_in_a_worker_thread(capsys):
    code, want, _ = run(capsys, "gen", "examples")
    assert code == 0
    got = {}

    def work():
        try:
            got["code"] = main(["gen", "examples"])
        except Exception as exc:  # reported by the assertion below
            got["error"] = exc

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert got == {"code": 0}
    assert capsys.readouterr().out == want


def test_a_second_call_builds_no_parser(capsys, monkeypatch, m1_file):
    run(capsys, "classify", m1_file)
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, out, _ = run(capsys, "prestar", m1_file, "--state", "q1", "--value", "19")
    assert code == 0 and out.startswith("q1: ")
    assert built == []


def test_one_process_answers_like_a_fresh_process_per_call(capsys, monkeypatch,
                                                           m1_file, m2_file):
    prestar = ["prestar", m1_file, "--state", "q1", "--value", "19"]
    calls = [
        ["parse", m1_file],
        ["classify", m1_file],
        prestar,
        prestar + ["--json"],
        prestar + ["--upward"],
        ["reach", m1_file, "--from", "q1:0", "--to", "q1:19"],
        ["cover", m2_file, "--from", "q1:1", "--to", "q1:19"],
        ["wsts", m1_file],
        ["prestar", m1_file, "--state", "q1"],  # usage error: no --value
        ["--version"],
        prestar,
    ]
    # argparse wraps usage lines at the terminal width: pin it on both sides
    monkeypatch.setenv("COLUMNS", "80")
    here = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        captured = capsys.readouterr()
        here.append((code, captured.out, captured.err))
    root = os.path.dirname(os.path.dirname(avasskit.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONIOENCODING": "utf-8"}
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "avasskit.cli", *argv],
                              capture_output=True, encoding="utf-8", env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in here] == [0] * 8 + [3, 0, 0]
    assert here == fresh


# --- help pages and the paths the tests above do not run ----------------------

VERBS = ("parse", "classify", "prestar", "reach", "cover", "state-reach", "wsts",
         "strong-mono", "wqo", "functional", "gen", "sim")
HELP_GOLDEN = os.path.join(os.path.dirname(__file__), "cli_help.txt")


def test_help_pages_match_the_golden_file(capsys, monkeypatch):
    # argparse wraps at the terminal width: pin it as the golden file was made
    monkeypatch.setenv("COLUMNS", "80")
    pages = []
    for argv in [["-h"]] + [[verb, "-h"] for verb in VERBS]:
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 0
        pages.append(f"$ avasskit {' '.join(argv)}\n{capsys.readouterr().out}")
    with open(HELP_GOLDEN, encoding="utf-8") as handle:
        assert "\n".join(pages) == handle.read()


@pytest.mark.parametrize("text,payload", [
    ("machine mat\ndim 2\nstate q init\ntrans q -> q : A = [[1,0],[2,1]] ; b = [1,-1]\n",
     {"kind": "affined", "matrix": [[1, 0], [2, 1]], "offset": [1, -1]}),
    ("machine mk\ndim 2\nstate q init\ntrans q -> q : dec 2\n",
     {"kind": "minsky", "op": "dec", "counter": 2}),
    ("machine rel\ndim 1\nstate q init\ntrans q -> q : formula x <= x'\n",
     {"kind": "relational", "formula": "x + -x' <= 0"}),
])
def test_parse_json_of_each_payload_kind(capsys, tmp_path, text, payload):
    path = tmp_path / "m.cm"
    path.write_text(text)
    code, out, _ = run(capsys, "parse", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["transitions"] == [{"source": "q", "target": "q", "payload": payload}]


def test_functional_json_lists_each_failure(capsys, tmp_path):
    loose = tmp_path / "loose.cm"
    loose.write_text("machine g\ndim 1\nstate q init\ntrans q -> q : formula x <= x'\n")
    code, out, _ = run(capsys, "functional", str(loose), "--json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "no",
        "failures": [{"transition": "q -> q : formula x + -x' <= 0",
                      "witness": {"x": 0, "x'": 1, "x'2": 0}}],
    }


def test_gen_examples_json_is_a_list(capsys):
    code, out, _ = run(capsys, "gen", "examples", "--json")
    assert code == 0
    names = [obj["name"] for obj in json.loads(out)]
    assert len(names) == 3 and names[0] == "m1"


def test_gen_name_needs_a_single_machine(capsys):
    code, out, err = run(capsys, "gen", "examples", "--name", "X")
    assert (code, out) == (3, "")
    assert err == "error: --name applies to a single generated machine\n"


def test_sim_path_search_json(capsys, m1_file):
    code, out, _ = run(capsys, "sim", m1_file, "--from", "q1:0", "--pre", "q1:19",
                       "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "yes" and obj["truncated"] is False
    assert obj["path"][0] == "q1:0" and obj["path"][-1] == "q1:19"
    code, out, _ = run(capsys, "sim", m1_file, "--from", "q1:10", "--pre", "q1:19",
                       "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "no", "truncated": False, "path": None}


def test_wqo_json_not_a_quasi_ordering(capsys, tmp_path):
    strict = tmp_path / "lt.pf"
    strict.write_text("vars x y\nx < y\n")
    code, out, _ = run(capsys, "wqo", str(strict), "--json")
    assert code == 0
    assert json.loads(out) == {"verdict": "not-quasi-ordering",
                               "failed-axiom": "reflexivity",
                               "counterexample": {"x": 0}}


def test_wqo_needs_two_variables(capsys, tmp_path):
    three = tmp_path / "three.pf"
    three.write_text("vars x y z\nx <= y\n")
    code, out, err = run(capsys, "wqo", str(three))
    assert (code, out) == (3, "")
    assert err == "error: the ordering test needs exactly two variables, got 3\n"
