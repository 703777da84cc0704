import contextlib
import hashlib
import io
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pocketcube import cli, cube, tables
from pocketcube.cube import SOLVED, facelets_to_string, parse_moves, to_facelets, unrank

from conftest import wrong_pdbs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_exit(capsys, *argv):
    """run_cli, with SystemExit turned into the exit code and stderr text
    the interpreter would produce for it."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def copy_tables(table_dir, dest):
    dest.mkdir()
    for name in (cli.DIST_FILE, cli.ORI_PDB_FILE, cli.PERM_PDB_FILE):
        dest.joinpath(name).write_bytes(table_dir.joinpath(name).read_bytes())
    return dest


# a state at depth 14 whose neighbours are all at depth 13
ANTIPODE_RANK = 19364


@pytest.fixture()
def overestimating_dirs(table_dir, pdb, tmp_path):
    """(dir, file name) for tables with one overestimating PDB file each,
    with a valid CRC: `wrong_pdbs`."""
    dirs = []
    for i, (ori, perm, wrong) in enumerate(wrong_pdbs(pdb)):
        d = copy_tables(table_dir, tmp_path / f"overestimating{i}")
        tables.PatternDB(ori, perm).save(d / cli.ORI_PDB_FILE, d / cli.PERM_PDB_FILE)
        dirs.append((d, cli.ORI_PDB_FILE if wrong == "ori" else cli.PERM_PDB_FILE))
    return dirs


@pytest.fixture()
def tdir(table_dir):
    return str(table_dir)


@pytest.fixture()
def understated_dir(table_dir, dist_table, tmp_path):
    """Tables whose distance file says 12 for ANTIPODE_RANK, with a valid CRC."""
    d = copy_tables(table_dir, tmp_path / "understated")
    dist = dist_table.dist.copy()
    assert dist[ANTIPODE_RANK] == 14
    dist[ANTIPODE_RANK] = 12
    tables.DistanceTable(dist).save(d / cli.DIST_FILE)
    return d


def emptied_depth_dir(table_dir, dist_table, dest, depth, into):
    """Tables whose distance file says `into` for every state at `depth`,
    with a valid CRC."""
    d = copy_tables(table_dir, dest)
    dist = dist_table.dist.copy()
    dist[dist == depth] = into
    tables.DistanceTable(dist).save(d / cli.DIST_FILE)
    return d


@pytest.fixture()
def no_fourteen_dir(table_dir, dist_table, tmp_path):
    return emptied_depth_dir(table_dir, dist_table, tmp_path / "no_fourteen", 14, 13)


@pytest.fixture()
def no_seven_dir(table_dir, dist_table, tmp_path):
    return emptied_depth_dir(table_dir, dist_table, tmp_path / "no_seven", 7, 8)


class TestSolve:
    def test_single_turn(self, tdir, capsys):
        code, out, _ = run_cli(capsys, "--tables", tdir, "solve", "--scramble", "U")
        assert code == 0
        assert "solution: U'" in out
        assert "length: 1" in out

    def test_empty_scramble(self, tdir, capsys):
        code, out, _ = run_cli(capsys, "--tables", tdir, "solve", "--scramble", "")
        assert code == 0
        assert "length: 0" in out

    def test_long_scramble_stays_within_diameter(self, tdir, capsys):
        rng = np.random.default_rng(90)
        moves = "U U' D D' R R' L L' F F' B B'".split()
        scramble = " ".join(moves[i] for i in rng.integers(0, 12, size=30))
        for planner in ("ida", "oracle"):
            code, out, _ = run_cli(capsys, "--tables", tdir, "solve",
                                   "--scramble", scramble, "--planner", planner)
            assert code == 0
            length = int(out.splitlines()[-1].split()[-1])
            assert length <= 14

    def test_facelet_state_input(self, tdir, capsys):
        text = facelets_to_string(to_facelets(SOLVED))
        code, out, _ = run_cli(capsys, "--tables", tdir, "solve", "--state", text)
        assert code == 0
        assert "length: 0" in out

    def test_solution_actually_parses(self, tdir, capsys):
        code, out, _ = run_cli(capsys, "--tables", tdir, "solve",
                               "--scramble", "R U F' L D B")
        line = out.splitlines()[0].removeprefix("solution:").strip()
        assert code == 0
        parse_moves(line)

    def test_bad_token_fails(self, tdir, capsys):
        code, _, err = run_cli(capsys, "--tables", tdir, "solve", "--scramble", "U2")
        assert code == 1
        assert "token 1" in err

    def test_bad_facelets_fail(self, tdir, capsys):
        code, _, err = run_cli(capsys, "--tables", tdir, "solve", "--state", "W" * 24)
        assert code == 1
        assert "error" in err


class TestScramble:
    def test_exact_distance_and_count(self, tdir, capsys):
        code, out, _ = run_cli(capsys, "--tables", tdir, "scramble",
                               "--distance", "4", "--count", "3", "--seed", "5")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        for text in lines:
            code2, out2, _ = run_cli(capsys, "--tables", tdir, "solve", "--state", text)
            assert code2 == 0
            assert "length: 4" in out2

    def test_deterministic(self, tdir, capsys):
        a = run_cli(capsys, "--tables", tdir, "scramble", "--distance", "14",
                    "--count", "2", "--seed", "3")
        b = run_cli(capsys, "--tables", tdir, "scramble", "--distance", "14",
                    "--count", "2", "--seed", "3")
        assert a == b
        assert a[0] == 0 and a[1].strip()

    def test_range_check(self, tdir, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--tables", tdir, "scramble", "--distance", "15"])
        capsys.readouterr()

    def test_output_is_pinned(self, tdir, capsys):
        code, out, _ = run_cli(capsys, "--tables", tdir, "scramble", "--distance", "11",
                               "--count", "20", "--seed", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "a4fe13cd372e1d57c7de2408bf28848a6e1ab030874a72cd2484809a9af5f179"


class TestSimulate:
    def test_solved_input(self, tdir, capsys):
        text = facelets_to_string(to_facelets(SOLVED))
        code, out, _ = run_cli(capsys, "--tables", tdir, "simulate", "--state", text)
        assert code == 0
        assert "success: True" in out
        assert "atomic actions: 0" in out

    def test_perfect_override_gives_plan_length(self, tdir, capsys):
        code, out, _ = run_cli(capsys, "--tables", tdir, "simulate",
                               "--scramble", "R'", "--p-rot", "1", "--p-op", "1")
        assert code == 0
        assert "success: True" in out
        assert "atomic actions: 4" in out  # undoing R' takes R: rotate + 3 twists

    def test_same_seed_same_trace(self, tdir, capsys):
        argv = ["--tables", tdir, "simulate", "--scramble", "R U F'",
                "--seed", "11", "--trace"]
        a = run_cli(capsys, *argv)
        b = run_cli(capsys, *argv)
        assert a == b

    @pytest.mark.parametrize("mode, digest", [
        ("rollback", "20f627e00cc6a9e73d7abd9085d8904d5bd10cbc3b5811de8a73594f13953fb2"),
        ("open", "07d1177695c0b8d8437066ebb5d39f0d2c41ccc8ec163c8466a042058b01aa84"),
    ])
    def test_stress_trace_is_pinned(self, tdir, capsys, mode, digest):
        # byte-identical output across refactors of the executor
        code, out, _ = run_cli(capsys, "--tables", tdir, "simulate",
                               "--scramble", "R U F' U R' F U'", "--seed", "9",
                               "--p-rot", "0.6", "--p-op", "0.5", "--p-restore", "0.6",
                               "--trace", "--mode", mode)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_open_mode(self, tdir, capsys):
        code, out, _ = run_cli(capsys, "--tables", tdir, "simulate",
                               "--scramble", "R U", "--mode", "open", "--seed", "2")
        assert code == 0
        assert "mode: open_loop" in out


class TestEval:
    def test_writes_csv_and_reports(self, tdir, capsys, tmp_path):
        out_csv = tmp_path / "r.csv"
        code, out, _ = run_cli(capsys, "--tables", tdir, "eval", "--trials", "2",
                               "--out", str(out_csv), "--quiet",
                               "--p-rot", "1", "--p-op", "1")
        assert code == 0
        assert "average SR (rollback): 1.0000" in out
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 29

    def test_csv_is_pinned(self, tdir, capsys, tmp_path):
        out_csv = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "--tables", tdir, "eval", "--trials", "5",
                             "--seed", "0", "--out", str(out_csv), "--quiet")
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == \
            "224c4f1eeb2499274282e895218937ec2ccd0e08c8d6f2750b39028fc751a927"

    def test_csv_is_pinned_for_a_two_word_seed(self, tdir, capsys, tmp_path):
        # 2^40 + 5: the master seed fills more than one 32-bit seed word
        out_csv = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "--tables", tdir, "eval", "--trials", "3",
                             "--seed", "1099511627781", "--out", str(out_csv), "--quiet")
        assert code == 0
        assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == \
            "3cbbbb5c3132420938b6681cba2de4c7362612c7c21b595dde62d1b802123e36"

    def test_single_mode(self, tdir, capsys, tmp_path):
        out_csv = tmp_path / "r.csv"
        code, out, _ = run_cli(capsys, "--tables", tdir, "eval", "--trials", "1",
                               "--modes", "rollback", "--out", str(out_csv), "--quiet")
        assert code == 0
        assert len(out_csv.read_text().splitlines()) == 15


class TestVerify:
    def test_passes_on_good_tables(self, tdir, capsys, monkeypatch):
        # the move reduction is proved from the solved state: no sampled states
        def forbidden(*_):
            raise AssertionError("verify must not sample or unrank states here")
        for name in ("random_canonical", "unrank"):
            monkeypatch.setattr(cube, name, forbidden)
        code, out, _ = run_cli(capsys, "--tables", tdir, "verify")
        assert code == 0
        assert "FAIL" not in out
        names = ("table files", "diameter 14", "exact distances", "rank round-trip",
                 "move reduction")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [f"PASS  {n}" for n in names]
        assert "PASS  move reduction: 12 transform identities" in out
        assert "all 3674160 canonical states" in out

    def test_understated_distance_fails_exact_check(self, understated_dir, capsys):
        # the diameter still passes on this table
        code, out, _ = run_cli(capsys, "--tables", str(understated_dir), "verify", "--full")
        assert code == 1
        assert "FAIL  exact distances" in out
        assert "PASS  diameter 14" in out

    @pytest.mark.parametrize("rank, value", [(70_000, 0xFF), (70_000, 0), (ANTIPODE_RANK, 10)])
    def test_corollaries_fail_exact_check(self, table_dir, dist_table, tmp_path, capsys,
                                          rank, value):
        # an unreached state, a second solved state and an antipode 3 below
        # its neighbours: the state count and neighbour consistency follow
        # from the exact-distance certificate, which catches each
        d = copy_tables(table_dir, tmp_path / "corollary")
        dist = dist_table.dist.copy()
        dist[rank] = value
        tables.DistanceTable(dist).save(d / cli.DIST_FILE)
        code, out, _ = run_cli(capsys, "--tables", str(d), "verify")
        assert code == 1
        assert "FAIL  exact distances" in out

    def test_wrong_entry_count_fails_table_files(self, table_dir, tmp_path, capsys):
        d = copy_tables(table_dir, tmp_path / "short")
        tables._write_table(d / cli.DIST_FILE, tables.KIND_FULL, bytes(100))
        code, out, _ = run_cli(capsys, "--tables", str(d), "verify")
        assert code == 1
        assert "FAIL  table files" in out
        assert "BadEntryCount" in out

    def test_corrupted_table_reports_checksum(self, table_dir, tmp_path, capsys):
        bad = tmp_path / "bad"
        bad.mkdir()
        for name in ("distance_qtm.bin", "pdb_ori.bin", "pdb_perm.bin"):
            bad.joinpath(name).write_bytes(table_dir.joinpath(name).read_bytes())
        blob = bytearray((bad / "distance_qtm.bin").read_bytes())
        blob[1000] ^= 0x55
        (bad / "distance_qtm.bin").write_bytes(bytes(blob))
        code, out, _ = run_cli(capsys, "--tables", str(bad), "verify")
        assert code == 1
        assert "FAIL  table files" in out
        assert "ChecksumMismatch" in out

    def test_overestimating_pdb_fails_table_files(self, overestimating_dirs, capsys):
        for d, wrong in overestimating_dirs:
            code, out, _ = run_cli(capsys, "--tables", str(d), "verify")
            assert code == 1
            assert "FAIL  table files" in out
            assert "InconsistentTable" in out and wrong in out

    def test_missing_tables_fail(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "--tables", str(tmp_path), "verify")
        assert code == 1
        assert "FAIL" in out


class TestBuildTables:
    def test_build_reports_and_matches_session_tables(self, table_dir, tmp_path, capsys):
        out_dir = tmp_path / "fresh"
        code, out, _ = run_cli(capsys, "build-tables", "--out", str(out_dir))
        assert code == 0
        assert "states: 3674160" in out
        assert "max depth: 14" in out
        for name in ("distance_qtm.bin", "pdb_ori.bin", "pdb_perm.bin"):
            assert out_dir.joinpath(name).read_bytes() == \
                table_dir.joinpath(name).read_bytes()

    def test_env_var_table_dir(self, tdir, capsys, monkeypatch):
        monkeypatch.setenv(cli.TABLE_DIR_ENV, tdir)
        code, out, _ = run_cli(capsys, "solve", "--scramble", "F")
        assert code == 0
        assert "solution: F'" in out

    def test_missing_tables_hint(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--tables", str(tmp_path), "solve", "--scramble", "U"])
        assert "build-tables" in str(err.value)
        capsys.readouterr()


class TestBadInputErrors:
    """Bad flags and bad table content end in 'error: ...' and exit 1."""

    def test_zero_trials(self, tdir, tmp_path, capsys):
        code, _, err = run_cli_exit(capsys, "--tables", tdir, "eval", "--trials", "0",
                                    "--out", str(tmp_path / "r.csv"), "--quiet")
        assert code == 1
        assert err.startswith("error: ")

    def test_rate_above_one(self, tdir, capsys):
        code, _, err = run_cli_exit(capsys, "--tables", tdir, "simulate",
                                    "--scramble", "R", "--p-rot", "2")
        assert code == 1
        assert err.startswith("error: ")

    def test_wrong_entry_count(self, table_dir, tmp_path, capsys):
        d = copy_tables(table_dir, tmp_path / "short")
        tables._write_table(d / cli.DIST_FILE, tables.KIND_FULL, bytes(100))
        code, _, err = run_cli_exit(capsys, "--tables", str(d), "solve",
                                    "--scramble", "R", "--planner", "oracle")
        assert code == 1
        assert err.startswith("error: ")
        assert "100 entries" in err

    def test_oracle_on_inconsistent_table(self, understated_dir, capsys):
        state = facelets_to_string(to_facelets(unrank(ANTIPODE_RANK)))
        code, _, err = run_cli_exit(capsys, "--tables", str(understated_dir), "solve",
                                    "--state", state, "--planner", "oracle")
        assert code == 1
        assert err.startswith("error: ")
        assert "inconsistent" in err

    @pytest.mark.parametrize("argv", [
        ["scramble", "--distance", "x"],
        ["scramble"],
        ["solve"],
        ["eval", "--out"],
        ["no-such-command"],
    ])
    def test_argparse_errors(self, argv, capsys):
        code, _, err = run_cli_exit(capsys, *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("error:")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli_exit(capsys, "--help")
        assert code == 0
        assert "verify" in out

    def test_nan_threshold(self, tdir, capsys):
        code, _, err = run_cli_exit(capsys, "--tables", tdir, "simulate",
                                    "--scramble", "R", "--delta-x", "nan")
        assert code == 1
        assert err.startswith("error: ")
        assert "delta_x" in err

    def test_ida_on_overestimating_pdb(self, overestimating_dirs, capsys):
        for d, wrong in overestimating_dirs:
            code, _, err = run_cli_exit(capsys, "--tables", str(d), "solve", "--scramble", "R U")
            assert code == 1
            assert err.startswith("error: ")
            assert wrong in err

    def test_scramble_from_an_empty_depth(self, no_fourteen_dir, capsys):
        code, _, err = run_cli_exit(capsys, "--tables", str(no_fourteen_dir), "scramble",
                                    "--distance", "14")
        assert code == 1
        assert err == "error: distance table has no states at distance 14\n"

    def test_eval_on_an_empty_depth(self, no_fourteen_dir, tmp_path, capsys):
        code, _, err = run_cli_exit(capsys, "--tables", str(no_fourteen_dir), "eval",
                                    "--trials", "1", "--quiet", "--out", str(tmp_path / "r.csv"))
        assert code == 1
        assert err == "error: distance table has no states at distance 14\n"

    def test_scramble_from_an_empty_middle_depth(self, no_seven_dir, capsys):
        code, _, err = run_cli_exit(capsys, "--tables", str(no_seven_dir), "scramble",
                                    "--distance", "7")
        assert code == 1
        assert err == "error: distance table has no states at distance 7\n"

    def test_eval_on_an_empty_middle_depth(self, no_seven_dir, tmp_path, capsys):
        code, _, err = run_cli_exit(capsys, "--tables", str(no_seven_dir), "eval",
                                    "--trials", "1", "--quiet", "--out", str(tmp_path / "r.csv"))
        assert code == 1
        assert err == "error: distance table has no states at distance 7\n"

    @pytest.mark.parametrize("count", [cli.MAX_DRAWS + 1, 10**12])
    @pytest.mark.parametrize("argv", [
        ("scramble", "--distance", "7", "--count"),
        ("eval", "--quiet", "--out", "r.csv", "--trials"),
    ], ids=lambda argv: argv[0])
    def test_draw_count_above_the_limit(self, tdir, tmp_path, monkeypatch, capsys, argv,
                                        count):
        def no_draw(*args):
            raise AssertionError("drew before the flag was checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli.evaluate, "sample_at_distance", no_draw)
        code, _, err = run_cli_exit(capsys, "--tables", tdir, *argv, str(count))
        assert code == 1
        assert err == f"error: {argv[-1]} must be in 1..{cli.MAX_DRAWS}\n"

    @pytest.mark.parametrize("argv", [
        ("simulate", "--scramble", "R"),
        ("scramble", "--distance", "3"),
        ("eval", "--trials", "1", "--quiet", "--out", "r.csv"),
    ], ids=lambda argv: argv[0])
    def test_negative_seed(self, tdir, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code, _, err = run_cli_exit(capsys, "--tables", tdir, *argv, "--seed", "-1")
        assert code == 1
        assert err == "error: --seed must be >= 0\n"


@pytest.fixture(scope="module")
def fuzz_dirs(tmp_path_factory, table_dir, dist_table, pdb):
    """The good tables plus missing, truncated and wrong-content ones, under
    a scratch directory made the working directory, with no table variable
    set."""
    root = tmp_path_factory.mktemp("fuzz")
    root.joinpath("a-file").write_text("not a directory")
    dirs = [table_dir, root / "empty", root / "no-such-dir"]
    (root / "empty").mkdir()
    for name, keep in ((cli.DIST_FILE, 1_000_000), (cli.ORI_PDB_FILE, 10), (cli.PERM_PDB_FILE, 0)):
        d = copy_tables(table_dir, root / f"truncated-{name}")
        d.joinpath(name).write_bytes(table_dir.joinpath(name).read_bytes()[:keep])
        dirs.append(d)
    d = copy_tables(table_dir, root / "dist-is-a-dir")
    d.joinpath(cli.DIST_FILE).unlink()
    d.joinpath(cli.DIST_FILE).mkdir()
    dirs.append(d)
    d = copy_tables(table_dir, root / "understated")
    dist = dist_table.dist.copy()
    dist[ANTIPODE_RANK] = 12
    tables.DistanceTable(dist).save(d / cli.DIST_FILE)
    dirs.append(d)
    dirs.append(emptied_depth_dir(table_dir, dist_table, root / "no-fourteen", 14, 13))
    ori, perm, _ = wrong_pdbs(pdb)[1]
    d = copy_tables(table_dir, root / "overestimating")
    tables.PatternDB(ori, perm).save(d / cli.ORI_PDB_FILE, d / cli.PERM_PDB_FILE)
    dirs.append(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        mp.delenv(cli.TABLE_DIR_ENV, raising=False)
        yield [str(d) for d in dirs]


MOVES = (("", "R U F'", "R U F' U R' F U'", "D L B", "U U U U R"), ("U2", "X", "u", "R,U"))
STATES = ((facelets_to_string(to_facelets(SOLVED)),
           facelets_to_string(to_facelets(unrank(ANTIPODE_RANK))),
           facelets_to_string(to_facelets(unrank(1_234_567)))),
          ("W" * 24, "WGWG", "x" * 24, ""))
SEEDS = (("0", "9", str(2**128 + 1)), ("-1", "x", "1e3"))
RATES = (("0", "0.5", "0.952", "1", "1e-300"), ("-0.1", "1.5", "nan", "inf", "x"))
DELTAS = (("0.01", "0.1", "1e-12", "3", "1e308"), ("0", "-1", "nan", "inf", "x"))
ACTUATOR = [("--p-rot", *RATES), ("--p-op", *RATES), ("--p-restore", *RATES),
            ("--delta-x", *DELTAS), ("--delta-q", *DELTAS)]
SWITCH = ((), ())
# Each flag with its good and bad values.  Where valid, --trials and
# --count stay at most 2 and 5, and no --out names a writable place outside
# the fuzz directory: build-tables is only ever given an unwritable one.
GRAMMAR = {
    "build-tables": [("--out", ("a-file", "a-file/tables"), ())],
    "solve": [("--planner", ("ida", "oracle"), ("bfs",))],
    "scramble": [("--distance", ("1", "7", "14"), ("-1", "0", "15", str(2**70), "x")),
                 ("--count", ("1", "5"), ("-1", "0", str(cli.MAX_DRAWS + 1), str(10**30), "x")),
                 ("--seed", *SEEDS)],
    "simulate": [("--mode", ("rollback", "open"), ("closed",)), ("--seed", *SEEDS),
                 ("--trace", *SWITCH)] + ACTUATOR,
    "eval": [("--trials", ("1", "2"), ("-1", "0", str(cli.MAX_DRAWS + 1), "x")),
             ("--modes", ("both", "rollback", "open"), ("x",)),
             ("--out", ("r.csv", "out.csv"), (".", "no-such-dir/r.csv", "a-file/r.csv")),
             ("--seed", *SEEDS), ("--quiet", *SWITCH)] + ACTUATOR,
    "verify": [("--full", *SWITCH)],
}
# flags left out only as a fault: the required ones, and --trials, whose
# default of 100 would cost seconds
KEPT = ("--distance", "--out", "--trials")
JUNK = ("--bogus", "-x", "--", "-h", "R", "7", "nan", "\u2603", "", "--seed=-1",
        "--trials", "eval", "--tables")


@st.composite
def cli_argv(draw, dirs):
    """argv over the six subcommands.  Each flag gets a good value or is
    left out, except for up to two faulty ones, given a bad value or none;
    the flags come in any order, with up to two junk tokens anywhere, and
    mostly with the good table directory."""
    command = draw(st.sampled_from(sorted(GRAMMAR)))
    flags = list(GRAMMAR[command])
    if command in ("solve", "simulate"):  # exactly one of the two is valid
        flags += draw(st.sampled_from((
            [("--scramble", *MOVES)], [("--state", *STATES)], [("--scramble", *MOVES)],
            [("--state", *STATES)], [], [("--scramble", *MOVES), ("--state", *STATES)])))
    faults = draw(st.lists(st.sampled_from(range(len(flags))), max_size=draw(st.sampled_from((0, 0, 1, 2)))))
    groups = []
    for i, (name, good, bad) in enumerate(flags):
        if not good:  # a switch: given a value is its fault
            options = [[name, "1"]] if i in faults else [[name], []]
        elif i in faults:  # left out, no value or a bad one
            options = [[], [name]] + [[name, v] for v in bad]
        else:  # a good value; an optional flag may be left out
            options = [[name, v] for v in good] + [[]] * (name not in KEPT)
        groups.append(draw(st.sampled_from(options)))
    argv = [command] + [t for g in draw(st.permutations(groups)) for t in g]
    table_dir = draw(st.sampled_from([dirs[0]] * 3 + [None] + dirs[1:]))
    if table_dir is not None:
        argv = ["--tables", table_dir] + argv
    for _ in range(draw(st.sampled_from((0, 0, 0, 0, 1, 2)))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK)))
    return argv


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=150)
    def test_every_argv_exits_zero_or_with_an_error_line(self, fuzz_dirs, data):
        argv = data.draw(cli_argv(fuzz_dirs), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # anything else escaping fails the test
                code = exc.code if isinstance(exc.code, int) else 1
                if isinstance(exc.code, str):
                    print(exc.code, file=sys.stderr)  # as the interpreter does
        assert code in (0, 1)
        if code == 1:
            # verify reports its failed checks as FAIL lines on stdout
            failed = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
            failed += [line for line in out.getvalue().splitlines() if line.startswith("FAIL")
                       and "verify" in argv]
            assert failed, (argv, out.getvalue(), err.getvalue())
