"""The string-joining artifact writers and the C-parsed marks reader against
their per-value ``csv``/``json`` references in ``oracles``: equal bytes,
bit-exact round trips and the reader's layout checks."""

import numpy as np
import pytest

from bdspin.birth_death import ConstantBirthKernel, Event, Trajectory
from bdspin.geometry import Configuration, Window
from bdspin.marked_process import combine, write_marked_snapshots
from bdspin.spin_sde import MarkPath, read_mark_path_csv
from oracles import (reference_read_mark_path_csv, reference_to_csv,
                     reference_write_marked_snapshots)
from test_marked_process import glauber_marked

BIG = 2**31

SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, 1e16, 0.1]


def special_marked(values):
    """Four ids above 2**31 but the first, two of them born later and two
    dying, on a grid of 9 times; ``values`` is the 9 x 4 mark array."""
    window = Window(4.0, 2, "open")
    gamma0 = Configuration(window, [(3, [0.1, 1e-05]), (BIG + 7, [3.9999999999999996, 2.5])])
    events = [
        Event(0.25, "birth", 2**40, (1.5, 0.30000000000000004)),
        Event(0.5, "death", 3, (0.1, 1e-05)),
        Event(0.5, "birth", 2**53 + 2, (2.0, 5e-324)),
        Event(0.75, "death", BIG + 7, (3.9999999999999996, 2.5)),
    ]
    traj = Trajectory(window, gamma0, ConstantBirthKernel(1.0), 1.0, 1.0, 0, events)
    path = MarkPath(np.linspace(0.0, 1.0, 9), traj.phantom_ids(), np.array(values, dtype=float))
    return combine(traj, path)


# each column repeats values (frozen marks), flips between 0.0 and -0.0 (equal
# floats with different text) and holds every value of SPECIAL
FINITE = [
    [0.1, -0.0, 0.5, 0.5],
    [0.1, 0.0, 0.5, 0.5],
    [1e16, -0.0, 5e-324, 0.5],
    [1e16, -0.0, 1.7976931348623157e308, 0.5],
    [5e-324, 1.7976931348623157e308, -1e-300, 1e16],
    [5e-324, 0.1, 0.30000000000000004, -0.0],
    [5e-324, 1e16, 0.0, 0.1],
    [5e-324, 1e16, -0.0, 5e-324],
    [5e-324, 1e16, -0.0, 1.7976931348623157e308],
]
NON_FINITE = [row[:2] + [np.nan, np.inf] for row in FINITE[:4]] + [
    row[:2] + [-np.inf, np.nan] for row in FINITE[4:]]


@pytest.mark.parametrize("stride", [1, 2, 3])
@pytest.mark.parametrize("values", [FINITE, NON_FINITE], ids=["finite", "non_finite"])
def test_writers_match_references_on_special_values(tmp_path, stride, values):
    mt = special_marked(values)
    mt.marks.to_csv(tmp_path / "marks.csv", stride=stride)
    reference_to_csv(mt.marks, tmp_path / "ref_marks.csv", stride=stride)
    assert (tmp_path / "marks.csv").read_bytes() == (tmp_path / "ref_marks.csv").read_bytes()
    write_marked_snapshots(tmp_path / "snaps.jsonl", mt, stride=stride)
    reference_write_marked_snapshots(tmp_path / "ref_snaps.jsonl", mt, stride=stride)
    assert (tmp_path / "snaps.jsonl").read_bytes() == (tmp_path / "ref_snaps.jsonl").read_bytes()


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_writers_match_references_on_a_run(tmp_path, stride):
    _, path, mt = glauber_marked(seed=4, m=1.5, z=3.0)
    path.to_csv(tmp_path / "marks.csv", stride=stride)
    reference_to_csv(path, tmp_path / "ref_marks.csv", stride=stride)
    assert (tmp_path / "marks.csv").read_bytes() == (tmp_path / "ref_marks.csv").read_bytes()
    write_marked_snapshots(tmp_path / "snaps.jsonl", mt, stride=stride)
    reference_write_marked_snapshots(tmp_path / "ref_snaps.jsonl", mt, stride=stride)
    assert (tmp_path / "snaps.jsonl").read_bytes() == (tmp_path / "ref_snaps.jsonl").read_bytes()


def test_special_values_present():
    bits = set(np.array(FINITE).view(np.int64).ravel().tolist())
    assert all(int(np.float64(v).view(np.int64)) in bits for v in SPECIAL)


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_reader_round_trips_bit_for_bit(tmp_path, stride):
    marks = special_marked(FINITE).marks
    marks.to_csv(tmp_path / "marks.csv", stride=stride)
    back = read_mark_path_csv(tmp_path / "marks.csv")
    assert back.ids == marks.ids and all(type(pid) is int for pid in back.ids)
    assert back.grid.tobytes() == marks.grid[::stride].tobytes()
    assert back.values.tobytes() == marks.values[::stride].tobytes()


def test_reader_matches_reference_on_a_run(tmp_path):
    _, path, _ = glauber_marked(seed=6)
    path.to_csv(tmp_path / "marks.csv")
    got = read_mark_path_csv(tmp_path / "marks.csv")
    want = reference_read_mark_path_csv(tmp_path / "marks.csv")
    assert got.ids == want.ids
    assert got.grid.tobytes() == want.grid.tobytes()
    assert got.values.tobytes() == want.values.tobytes()


def test_reader_header_only_file_is_an_empty_path(tmp_path):
    MarkPath(np.array([0.0, 1.0]), [], np.zeros((2, 0))).to_csv(tmp_path / "marks.csv")
    got = read_mark_path_csv(tmp_path / "marks.csv")
    want = reference_read_mark_path_csv(tmp_path / "marks.csv")
    assert (got.ids, got.grid.shape, got.values.shape) == (want.ids, want.grid.shape,
                                                           want.values.shape) == ([], (0,), (0,))


def test_reader_header_and_blank_lines_is_an_empty_path(tmp_path):
    (tmp_path / "marks.csv").write_text("t,id,value\r\n\r\n\n")
    got = read_mark_path_csv(tmp_path / "marks.csv")
    assert (got.ids, got.grid.shape, got.values.shape) == ([], (0,), (0,))


def corrupt(lines, kind):
    """``lines`` of a marks.csv with 9 times x 4 ids, corrupted as ``kind``."""
    header, rows = lines[0], lines[1:]
    if kind == "repeated_last_row":  # the reference reader keeps 123.0
        t, pid, _ = rows[-1].split(",")
        rows.append(f"{t},{pid},123.0")
    elif kind == "repeated_row_inside_a_time":
        rows.insert(6, rows[5])
    elif kind == "ids_permuted":
        rows[4], rows[5] = rows[5], rows[4]
    elif kind == "times_swapped":
        rows[:8] = rows[4:8] + rows[:4]
    elif kind == "missing_row":
        del rows[5]
    elif kind == "other_id":
        t, _, v = rows[9].split(",")
        rows[9] = f"{t},{BIG + 8},{v}"
    elif kind == "long_time":
        rows[:4] = ["0.0000000000000000000000000" + r[3:] for r in rows[:4]]
    elif kind == "bad_value":
        rows[7] = rows[7].rsplit(",", 1)[0] + ",x"
    return [header] + rows


@pytest.mark.parametrize("kind,message", [
    ("repeated_last_row", "repeats or breaks the ascending order"),
    ("repeated_row_inside_a_time", "repeats or breaks the ascending order"),
    ("ids_permuted", "repeats or breaks the ascending order"),
    ("times_swapped", "times are not strictly increasing"),
    ("missing_row", "ids differ between times"),
    ("other_id", "ids differ between times"),
    ("long_time", "longer than a float repr"),
    ("bad_value", "could not convert"),
])
def test_reader_rejects_a_corrupt_layout(tmp_path, kind, message):
    f = tmp_path / "marks.csv"
    special_marked(FINITE).marks.to_csv(f)
    f.write_text("\n".join(corrupt(f.read_text().splitlines(), kind)) + "\n")
    with pytest.raises(ValueError, match=message):
        read_mark_path_csv(f)
