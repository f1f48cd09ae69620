import json

from tests import tree_sweep


def test_seed_ranges():
    assert tree_sweep.parse_seeds("260-263") == [260, 261, 262, 263]
    assert tree_sweep.parse_seeds("1,3,5-7") == [1, 3, 5, 6, 7]


def _write(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def test_compare_sums_times_and_flags_differing_objectives(tmp_path, capsys):
    def rec(seed, mode, status, obj, seconds, nodes, grid=10.0, excess=0.0, phi=-2.0, esc=0,
            fallbacks=(), family=10, iterations=1, pieces=3):
        return {"seed": seed, "mode": mode, "status": status, "nodes": nodes,
                "iterations": iterations, "root_iterations": 1, "family_iterations": family,
                "path_pieces": pieces, "escalations": esc,
                "fallbacks": list(fallbacks), "objective": obj, "seconds": seconds,
                "grid": grid, "ll_excess": excess, "ll_phi": phi}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    old = rec(3, "lpcc", "optimal", 1.0, 1.0, 1)
    del old["fallbacks"]  # a file written before solves recorded fallbacks
    del old["family_iterations"]  # ... or family iterations
    del old["path_pieces"]  # ... or path pieces
    _write(a, [rec(1, "lpcc", "optimal", 10.0, 1.0, 5, grid=10.0 - 1e-7),
               rec(1, "bigm", "optimal", 10.0, 2.0, 7, excess=4e-9),
               rec(2, "lpcc", "optimal", 3.0, 1.0, 9),
               rec(2, "bigm", "limit", 3.0, 4.0, 50, esc=1, fallbacks=["root_start"]), old])
    _write(b, [rec(1, "lpcc", "optimal", 10.0 + 5e-5, 0.5, 6, grid=10.0 + 5e-5),
               rec(1, "bigm", "optimal", 10.0, 1.0, 7, excess=2e-9),  # 1e-9 (1 + |-2|) = 3e-9
               rec(2, "lpcc", "optimal", 3.0 + 5e-7, 0.5, 9, excess=3e-6, phi=-3e3,
                   grid=10.0 + 5e-12),  # 5e-13 relative: the same grid
               rec(2, "bigm", "limit", 2.0, 3.0, 50, fallbacks=["reread"], family=4, pieces=5),
               rec(3, "lpcc", "optimal", 1.0, 1.0, 1, fallbacks=["reread"], iterations=2)])
    assert tree_sweep.compare(str(a), str(b)) == 1
    out = capsys.readouterr().out
    # seed 3 has no family iterations or path pieces in A, so lpcc prints neither
    assert "lpcc: 3 seeds, seconds 3.00 -> 2.00 (-33.3%), nodes 15 -> 16\n" in out
    assert ("bigm: 2 seeds, seconds 6.00 -> 4.00 (-33.3%), nodes 57 -> 57,"
            " family iterations 20 -> 14, path pieces 6 -> 8\n") in out
    assert "seed 1: objective 10.0 -> 10.00005" in out
    assert "seed 2" not in out  # within 1e-6, or not optimal on both sides
    # seed 1/lpcc: nodes; 2/bigm: family iterations; 3/lpcc: iterations (A
    # records no family iterations for it)
    assert "nodes, iterations or family iterations differ: 1/lpcc, 2/bigm, 3/lpcc\n" in out
    assert "escalations differ: 2/bigm\n" in out
    assert "fallbacks differ: 2/bigm\n" in out  # seed 3: not recorded in A
    assert "grid differs at 1e-12: 1\n" in out
    assert "grid below lpcc at 1e-09 in A: 1\n" in out
    assert "grid below lpcc at 1e-09 in B: none\n" in out
    assert "lower-level excess above 1e-09 in A: 1/bigm\n" in out
    assert "lower-level excess above 1e-09 in B: none\n" in out


def test_sweep_records_the_grid_objective(tmp_path):
    out = tmp_path / "sweep.jsonl"
    tree_sweep.sweep([213], node_limit=4000, out=str(out))
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["mode"] for r in records] == list(tree_sweep.MODES)
    assert [r["escalations"] for r in records] == [0, 0]
    assert [r["fallbacks"] for r in records] == [[], []]
    assert all(0 < r["root_iterations"] <= r["iterations"] for r in records)
    assert all(r["family_iterations"] > 0 for r in records)
    # both trees read the same paths, at least one piece per party
    assert records[0]["path_pieces"] == records[1]["path_pieces"] >= 2
    lpcc = records[0]
    assert lpcc["status"] == "optimal" and records[1]["grid"] == lpcc["grid"]
    assert tree_sweep.grid_below({(213, "lpcc"): lpcc}) == []
    for r in records:  # each answer's worst lower-level excess, within tolerance
        assert abs(r["ll_excess"]) <= 1e-9 * (1.0 + abs(r["ll_phi"]))
    assert tree_sweep.lower_level_above({(213, r["mode"]): r for r in records}) == []
