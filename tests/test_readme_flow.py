from tests import readme_flow


def test_two_runs_compare_equal_and_one_changed_byte_differs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert readme_flow.main(["--out", str(a)]) == 0
    assert readme_flow.main(["--out", str(b)]) == 0
    for mode in readme_flow.MODES:  # each command's output and code, next to its files
        for name, _ in readme_flow.STEPS:
            assert (a / mode / f"{name}.exit").read_text() == "0\n"
        assert (a / mode / "report" / "summary.txt").is_file()
        assert (a / mode / "cyc" / "summary.txt").is_file()
        assert (a / mode / "model.mps").is_file()
    assert "days = 2\n" in (a / "bigm" / "cyc" / "summary.txt").read_text()
    capsys.readouterr()
    assert readme_flow.main(["--compare", str(a), str(b)]) == 0
    assert " 0 differ " in capsys.readouterr().out

    changed = b / "lpcc" / "solve.stdout"
    data = bytearray(changed.read_bytes())
    data[-2] ^= 1
    changed.write_bytes(bytes(data))
    assert readme_flow.main(["--compare", str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert "differs: lpcc/solve.stdout\n" in out and " 1 differ " in out
