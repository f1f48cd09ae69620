import json

from tests import tree_sweep


def test_seed_ranges():
    assert tree_sweep.parse_seeds("260-263") == [260, 261, 262, 263]
    assert tree_sweep.parse_seeds("1,3,5-7") == [1, 3, 5, 6, 7]


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_compare_sums_times_and_flags_differing_objectives(tmp_path, capsys):
    def rec(seed, mode, status, obj, seconds, nodes, grid=10.0, excess=0.0, phi=-2.0, esc=0,
            fallbacks=(), family=10, iterations=1, pieces=3, scenario="free", grid_seconds=0.5,
            warm=(3, 1, 0)):
        return {"seed": seed, "mode": mode, "scenario": scenario, "status": status, "nodes": nodes,
                "iterations": iterations, "root_iterations": 1, "family_iterations": family,
                "path_pieces": pieces, "escalations": esc,
                **dict(zip(tree_sweep.WARM, warm)),
                "fallbacks": list(fallbacks), "objective": obj, "seconds": seconds,
                "ll_excess": excess, "ll_phi": phi,
                **({"grid": grid, "grid_seconds": grid_seconds}
                   if scenario == "free" else {})}  # as the sweep writes them

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    old = rec(3, "lpcc", "optimal", 1.0, 1.0, 1)
    del old["scenario"]  # a file written before the sweep recorded scenarios: free
    del old["fallbacks"]  # ... or fallbacks
    del old["family_iterations"]  # ... or family iterations
    del old["path_pieces"]  # ... or path pieces
    del old["grid_seconds"]  # ... or grid seconds
    for key in tree_sweep.WARM:  # ... or warm starts
        del old[key]
    _write(a, [rec(1, "lpcc", "optimal", 10.0, 1.0, 5, grid=10.0 - 1e-7),
               rec(1, "bigm", "optimal", 10.0, 2.0, 7, excess=4e-9),
               rec(2, "lpcc", "optimal", 3.0, 1.0, 9),
               rec(2, "bigm", "limit", 3.0, 4.0, 50, esc=1, fallbacks=["root_start"]), old,
               rec(1, "lpcc", "optimal", 12.0, 2.0, 20, scenario="customers-only")])
    _write(b, [rec(1, "lpcc", "optimal", 10.0 + 5e-5, 0.5, 6, grid=10.0 + 5e-5),
               rec(1, "bigm", "optimal", 10.0, 1.0, 7, excess=2e-9),  # 1e-9 (1 + |-2|) = 3e-9
               rec(2, "lpcc", "optimal", 3.0 + 5e-7, 0.5, 9, excess=3e-6, phi=-3e3,
                   grid=10.0 + 5e-12),  # 5e-13 relative: the same grid
               rec(2, "bigm", "limit", 2.0, 3.0, 50, fallbacks=["reread"], family=4, pieces=5,
                   grid_seconds=0.25, warm=(4, 1, 2)),
               rec(3, "lpcc", "optimal", 1.0, 1.0, 1, fallbacks=["reread"], iterations=2),
               rec(1, "lpcc", "optimal", 12.0, 2.5, 20, scenario="customers-only")])
    # one differing objective, A's grid below lpcc on seed 1 and A's
    # excess answer 1/bigm/free
    assert tree_sweep.compare(str(a), str(b)) == 3
    out = capsys.readouterr().out
    # seed 3 has no grid seconds, family iterations, path pieces or warm
    # starts in A, so lpcc/free prints none of them
    assert "lpcc/free: 3 seeds, seconds 3.00 -> 2.00 (-33.3%), nodes 15 -> 16\n" in out
    assert ("bigm/free: 2 seeds, seconds 6.00 -> 4.00 (-33.3%), nodes 57 -> 57,"
            " grid seconds 1.00 -> 0.75, family iterations 20 -> 14, path pieces 6 -> 8,"
            " warm hits/rebuilds/cold restarts 6/2/0 -> 7/2/2\n") in out
    # matched by seed, mode and scenario: seed 1's lpcc nodes differ when free only
    assert ("lpcc/customers-only: 1 seeds, seconds 2.00 -> 2.50 (+25.0%), nodes 20 -> 20,"
            " family iterations 10 -> 10, path pieces 3 -> 3,"
            " warm hits/rebuilds/cold restarts 3/1/0 -> 3/1/0\n") in out
    assert "bigm/customers-only" not in out  # no such solve in either file
    assert "seed 1: objective 10.0 -> 10.00005" in out
    assert "seed 2" not in out  # within 1e-6, or not optimal on both sides
    # seed 1/lpcc/free: nodes; 2/bigm/free: family iterations; 3/lpcc/free:
    # iterations (A records no family iterations for it)
    assert ("nodes, iterations or family iterations differ:"
            " 1/lpcc/free, 2/bigm/free, 3/lpcc/free\n") in out
    # seed 3: no warm starts recorded in A
    assert "warm hits, rebuilds or cold restarts differ: 2/bigm/free\n" in out
    assert "escalations differ: 2/bigm/free\n" in out
    assert "fallbacks differ: 2/bigm/free\n" in out  # seed 3: not recorded in A
    assert "grid differs at 1e-12: 1\n" in out
    assert "grid below lpcc at 1e-09 in A: 1\n" in out
    assert "grid below lpcc at 1e-09 in B: none\n" in out
    assert "lower-level excess above 1e-09 in A: 1/bigm/free\n" in out
    assert "lower-level excess above 1e-09 in B: none\n" in out


def test_compare_exits_1_on_any_correctness_failure(tmp_path, capsys):
    # it once exited 1 only on differing objectives, and 0 with an answer
    # whose dispatch is not optimal or a grid below an exact optimum
    def rec(mode, obj=10.0, grid=10.0, excess=0.0):
        return {"seed": 1, "mode": mode, "scenario": "free", "status": "optimal", "nodes": 1,
                "iterations": 1, "objective": obj, "seconds": 1.0, "ll_excess": excess,
                "ll_phi": -2.0, "grid": grid}

    clean = [rec("lpcc"), rec("bigm")]
    cases = {"clean": (clean, 0),
             "excess": ([rec("lpcc"), rec("bigm", excess=4e-9)], 1),  # 1e-9 (1 + |-2|) = 3e-9
             "grid below": ([rec("lpcc", grid=10.0 - 1e-7), rec("bigm", grid=10.0 - 1e-7)], 1)}
    for name, (records, code) in cases.items():
        for first, second in ((clean, records), (records, clean)):  # either file
            a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            _write(a, first)
            _write(b, second)
            assert tree_sweep.main(["--compare", str(a), str(b)]) == code, name
            assert "0 objectives differ" in capsys.readouterr().out, name


def test_compare_lists_moved_best_bounds_without_failing(tmp_path, capsys):
    # a change that moves only bounds once passed the compare unseen
    def rec(seed, bound, status="optimal"):
        r = {"seed": seed, "mode": "lpcc", "scenario": "free", "status": status, "nodes": 1,
             "iterations": 1, "objective": 10.0, "seconds": 1.0}
        return r if bound is None else {**r, "best_bound": bound}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _write(a, [rec(1, 9.5), rec(2, 9.5), rec(3, 9.5), rec(4, None), rec(5, float("-inf"), "limit")])
    _write(b, [rec(1, 9.5 * (1 + 1e-9)), rec(2, 9.5 * (1 + 1e-13)), rec(3, 9.0, "limit"),
               rec(4, 9.0), rec(5, float("-inf"), "limit")])
    assert tree_sweep.main(["--compare", str(a), str(b)]) == 0  # informational
    # seed 2 within 1e-12, 3 of unequal status, 4 not recorded in A, 5 equal infinities
    assert "best bounds differ at 1e-12: 1/lpcc/free\n" in capsys.readouterr().out


def test_sweep_records_the_grid_objective(tmp_path):
    out = tmp_path / "sweep.jsonl"
    tree_sweep.sweep([213], node_limit=4000, out=str(out))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["scenario"], r["mode"]) for r in records] == [
        (scenario, mode) for scenario in tree_sweep.SCENARIOS for mode in tree_sweep.MODES]
    assert all(r["status"] == "optimal" for r in records)
    assert [r["escalations"] for r in records] == [0] * 4
    assert [r["fallbacks"] for r in records] == [[]] * 4
    assert all(isinstance(r[key], int) and r[key] >= 0
               for r in records for key in tree_sweep.WARM)
    assert all(0 < r["root_iterations"] <= r["iterations"] for r in records)
    assert all(r["best_bound"] == r["objective"] for r in records)  # proved at gap 0
    assert all(r["family_iterations"] > 0 for r in records)
    # every solve reads the day's paths, at least one piece per party
    assert len({r["path_pieces"] for r in records}) == 1 and records[0]["path_pieces"] >= 2
    lpcc = records[0]
    assert records[1]["grid"] == lpcc["grid"]
    assert records[1]["grid_seconds"] == lpcc["grid_seconds"] > 0
    # the grid searches free divisions
    assert all("grid" not in r and "grid_seconds" not in r for r in records[2:])
    assert records[2]["objective"] >= lpcc["objective"]  # a pin only adds rows
    assert tree_sweep.grid_below({(213, "lpcc", "free"): lpcc}) == []
    for r in records:  # each answer's worst lower-level excess, within tolerance
        assert abs(r["ll_excess"]) <= 1e-9 * (1.0 + abs(r["ll_phi"]))
    keyed = {(213, r["mode"], r["scenario"]): r for r in records}
    assert tree_sweep.lower_level_above(keyed) == []
