"""What cli.load_data reads from a CSV, and which error it raises first.

Each case writes a small file and checks either the variable it yields
(values and probabilities, compared exactly) or the InputError text, with
the file path written as PATH.  The larger files run past the size at
which the library switches to its array kernels, and one bounds the
memory that loading 1e5 rows takes.  load_data reads the data rows with
numpy's C reader and hands the files it refuses to the row reader; the
last tests check that both readers give the same variable on the files
both accept, and that plain files take the numpy path.
"""

import gc
import os
import threading
import tracemalloc

import numpy as np
import pytest

from orlicz import cli
from orlicz.base import VECTOR_MIN

# Peak traced allocation while loading a 1e5-row sample: about 7.4 MB
# when numpy's reader reads the rows (6.5 MB when rows streamed into a
# float list, about 22 MB when every row was first kept as a list of
# strings).
PEAK_BOUND = 12e6

BAD = "bad data in PATH: "
FINITE = BAD + "values must be finite and nonnegative"

CASES = {
    "header row": ("value\n1\n3\n", "auto", ((1.0, 3.0), (0.5, 0.5))),
    "dist header row": ("x,p\n2,0.75\n0.5,0.25\n", "auto", ((0.5, 2.0), (0.25, 0.75))),
    "only the first row may be a header": (
        "value,prob\nname,p\n1,1\n",
        "auto",
        BAD + "could not convert string to float: 'name'",
    ),
    "blank lines": ("\n1\n\n\n2\n\n", "auto", ((1.0, 2.0), (0.5, 0.5))),
    "empty and padded cells": (
        " 1.5 , 0.25 \n,, 2 ,, 0.75\n",
        "auto",
        ((1.5, 2.0), (0.25, 0.75)),
    ),
    "empty first cell in a sample": (",3\n , 1\n", "auto", ((3.0, 1.0), (0.5, 0.5))),
    "empty first cell read as dist": (
        ",3\n , 1\n",
        "dist",
        "dist rows need value,probability: ['3']",
    ),
    "whitespace-only row is blank": ("1\n   \n2\n", "auto", ((1.0, 2.0), (0.5, 0.5))),
    "quoted cells": ('"1.5","0.25"\n"2",0.75\n', "auto", ((1.5, 2.0), (0.25, 0.75))),
    "quoted comma is one cell": (
        '1\n"1,5"\n',
        "auto",
        BAD + "could not convert string to float: '1,5'",
    ),
    "short dist row": ("1,0.5\n2\n", "auto", "dist rows need value,probability: ['2']"),
    "short row before a bad float": (
        "1,0.5\n2\nx,0.5\n",
        "auto",
        "dist rows need value,probability: ['2']",
    ),
    "bad float before a short row": (
        "1,0.5\nx,0.25\n2\n",
        "auto",
        BAD + "could not convert string to float: 'x'",
    ),
    "bad probability before a short row": (
        "1,0.5\n2,y\n3\n",
        "auto",
        BAD + "could not convert string to float: 'y'",
    ),
    "one-column file read as dist": ("1\n2\n", "dist", "dist rows need value,probability: ['1']"),
    "two-column file read as sample": ("1,0.9\n2,0.1\n", "sample", ((1.0, 2.0), (0.5, 0.5))),
    "nan value": ("1\nnan\n", "auto", FINITE),
    "inf value": ("inf\n1\n", "auto", FINITE),
    "negative value": ("1\n-2\n", "auto", FINITE),
    "nan dist value": ("nan,0.5\n1,0.5\n", "auto", FINITE),
    "negative dist value": ("-1,0.5\n1,0.5\n", "auto", FINITE),
    "nan probability": (
        "1,nan\n2,0.5\n",
        "auto",
        BAD + "atom probabilities must be strictly positive",
    ),
    "negative probability": ("1,-0.5\n2,1.5\n", "auto", BAD + "probabilities must be nonnegative"),
    "probabilities off one": ("1,0.5\n2,0.6\n", "auto", BAD + "probabilities sum to 1.1, not 1"),
    "zero-probability rows": ("1,0\n2,1\n3,0.0\n", "auto", ((2.0,), (1.0,))),
    "equal atoms merge": ("1,0.25\n2,0\n1,0.5\n3,0.25\n", "auto", ((1.0, 3.0), (0.75, 0.25))),
    "all probabilities zero": (
        "1,0\n2,0\n",
        "auto",
        BAD + "atoms and probs must be nonempty and aligned",
    ),
    "empty file": ("", "auto", "PATH holds no data rows"),
    "blank file": ("\n \n", "auto", "PATH holds no data rows"),
    "header-only file": ("value\n", "auto", "PATH holds no data rows"),
    "bare CR line ends": ("value\r1\r\r3\r", "auto", ((1.0, 3.0), (0.5, 0.5))),
    "CRLF line ends": ("x,p\r\n2,0.75\r\n0.5,0.25\r\n", "auto", ((0.5, 2.0), (0.25, 0.75))),
    "underscores in a number": ("1_0\n2\n", "auto", ((10.0, 2.0), (0.5, 0.5))),
    "non-numeric extra column": ("1,0.5,a\n2,0.5,b\n", "auto", ((1.0, 2.0), (0.5, 0.5))),
    "quoted cell spanning lines": ('1,1,"x\n2,0.5,y"\n', "auto", ((1.0,), (1.0,))),
    "quoted cell spanning lines in a sample": ('1,"x\n2,y"\n', "sample", ((1.0,), (1.0,))),
}


@pytest.mark.parametrize("name", list(CASES))
def test_load_data_semantics(tmp_path, name):
    text, fmt, want = CASES[name]
    path = tmp_path / "data.csv"
    path.write_text(text)
    if isinstance(want, str):
        with pytest.raises(cli.InputError) as info:
            cli.load_data(str(path), fmt)
        assert str(info.value).replace(repr(str(path)), "PATH") == want
    else:
        X = cli.load_data(str(path), fmt)
        assert (X.values, X.space.probs) == want


def test_missing_file_is_input_error(tmp_path):
    with pytest.raises(cli.InputError, match="cannot read"):
        cli.load_data(str(tmp_path / "absent.csv"))


def _law(pairs):
    """Atoms in ascending order, tied probabilities summed in file order."""
    acc = {}
    for v, p in pairs:
        if p != 0.0:
            acc[v] = acc.get(v, 0.0) + p
    atoms = tuple(sorted(acc))
    return atoms, tuple(acc[a] for a in atoms)


@pytest.mark.parametrize("n", [7, 300])
def test_large_dist_file_merges_ties_in_file_order(tmp_path, n):
    rng = np.random.default_rng(n)
    values = np.round(rng.lognormal(0.0, 1.0, n), 1).tolist()
    weights = rng.uniform(0.5, 1.5, n)
    weights[::11] = 0.0
    probs = (weights / weights.sum()).tolist()
    path = tmp_path / "dist.csv"
    path.write_text("value,prob\n" + "".join(f"{v!r},{p!r}\n" for v, p in zip(values, probs)))
    X = cli.load_data(str(path))
    assert (X.values, X.space.probs) == _law(zip(values, probs))


@pytest.mark.parametrize("n", [7, 300])
def test_large_sample_file_keeps_file_order(tmp_path, n):
    values = np.random.default_rng(n).lognormal(0.0, 1.0, n).tolist()
    path = tmp_path / "sample.csv"
    path.write_text("".join(f" {v!r} \n\n" for v in values))
    X = cli.load_data(str(path))
    assert X.values == tuple(values)
    assert X.space.probs == tuple([1.0 / n] * n)


def test_loading_a_large_sample_stays_within_a_memory_bound(tmp_path):
    n = 100_000
    values = np.random.default_rng(5).lognormal(0.0, 1.5, n).tolist()
    path = tmp_path / "big.csv"
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    gc.collect()
    tracemalloc.start()
    try:
        X = cli.load_data(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert X.values == tuple(values)
    assert peak < PEAK_BOUND, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe1\x00\n\x002\x00\n\x00", b"1\n2\n\xff\n", b"1\nx\n\xe9\n"],
    ids=["utf-16", "bad byte after good rows", "bad byte after a bad row"],
)
def test_non_utf8_file_is_input_error(tmp_path, data):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    with pytest.raises(cli.InputError, match="cannot read .*'utf-8' codec can't decode"):
        cli.load_data(str(path))


def _agreement_file(n, fmt, rng, newline="\r\n"):
    """A file both readers accept, with every form of cell they share.

    Dist rows carry two extra columns; numpy's reader needs the same
    number of columns on every row.
    """
    extremes = [5e-324, 1e-300, 2.5e-308, 1e300, 1.7976931348623157e308]
    values = rng.lognormal(0.0, 3.0, n) * 10.0 ** rng.integers(-300, 300, n) / 1e3
    values[: len(extremes)] = extremes[:n]
    if fmt == "dist":
        values[1::3] = values[::3][: len(values[1::3])]  # ties
        weights = rng.uniform(0.5, 1.5, n)
        weights[::5] = 0.0
        probs = weights / weights.sum()
    cells = []
    for i, v in enumerate(values.tolist()):
        cell = [f"{v!r}", f" {v!r}", f"\t{v:.17g} ", f"{v:.17e}"][i % 4]
        if fmt == "dist":
            cell += f", {probs[i].item()!r},4.5,-1e-5"
        cells.append(cell)
    body = ["value,prob" if fmt == "dist" else "value", ""]
    for i, cell in enumerate(cells):
        body.append(cell)
        if i % 11 == 5:
            body.append("")
    return newline.join(body) + newline


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["LF", "CR", "CRLF"])
@pytest.mark.parametrize("fmt", ["sample", "dist"])
@pytest.mark.parametrize("n", [7, 300, 100_000])
def test_numpy_reader_agrees_with_the_row_reader(tmp_path, monkeypatch, n, fmt, newline):
    # numpy opens the file by name with universal newlines, while the csv
    # reader reads it with newline=""; both must split the same lines
    path = tmp_path / "data.csv"
    path.write_bytes(_agreement_file(n, fmt, np.random.default_rng(n), newline).encode())
    tables = []
    table = cli._table

    def spy(*args):
        tables.append(table(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "_table", spy)
    X = cli.load_data(str(path))
    assert tables[0] is not None, "numpy's reader refused the file"
    monkeypatch.setattr(cli, "_table", lambda *args: None)  # the row reader reads it
    Y = cli.load_data(str(path), fmt)
    assert (X.values, X.space.probs) == (Y.values, Y.space.probs)


def test_plain_file_loads_without_the_row_reader(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("the row reader ran")

    values = np.random.default_rng(9).lognormal(0.0, 1.5, 10**4).tolist()
    path = tmp_path / "plain.csv"
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    monkeypatch.setattr(cli, "_convert", refuse)
    assert cli.load_data(str(path)).values == tuple(values)


@pytest.mark.parametrize("moved", [False, True], ids=["same file", "path moved"])
def test_numpy_reads_by_name_only_the_file_the_path_still_names(tmp_path, monkeypatch, moved):
    # where os.stat of the path reports another inode than the open
    # handle, numpy reads the handle; the values are the same either way
    values = np.random.default_rng(3).lognormal(0.0, 1.5, 500).tolist()
    path = tmp_path / "data.csv"
    path.write_text("value\n" + "".join(f"{v!r}\n" for v in values))
    real_stat, real_loadtxt = os.stat, np.loadtxt
    sources = []

    def other_inode(name, *args, **kwargs):
        st = real_stat(name, *args, **kwargs)
        if os.fspath(name) != str(path):
            return st
        fields = list(st)
        fields[1] += 1  # st_ino
        return os.stat_result(fields)

    def spy(source, *args, **kwargs):
        sources.append(source)
        return real_loadtxt(source, *args, **kwargs)

    if moved:
        monkeypatch.setattr(os, "stat", other_inode)
    monkeypatch.setattr(np, "loadtxt", spy)
    X = cli.load_data(str(path))
    assert X.values == tuple(values)
    assert len(sources) == 1
    assert isinstance(sources[0], str) != moved


@pytest.mark.parametrize("fmt", ["sample", "dist"])
@pytest.mark.parametrize("n", [7, 64, 300, 100_000])
def test_loaded_variable_holds_its_arrays(tmp_path, n, fmt):
    # from VECTOR_MIN rows on the arrays the loader built are kept, not
    # rebuilt from the tuples; at every size they match the tuples' bits
    path = tmp_path / "data.csv"
    path.write_bytes(_agreement_file(n, fmt, np.random.default_rng(n)).encode())
    X = cli.load_data(str(path))
    pairs = ((X, "_values_array", X.values_array, X.values),
             (X.space, "_probs_array", X.space.probs_array, X.space.probs))
    for owner, attr, array, seq in pairs:
        assert (attr in owner.__dict__) == (n >= VECTOR_MIN), attr
        arr = array()
        assert not arr.flags.writeable
        assert arr.tobytes() == np.fromiter(seq, float, len(seq)).tobytes()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("fmt", ["sample", "dist"])
def test_pipe_loads_like_a_file(tmp_path, fmt):
    # a pipe cannot seek back to its start, so it must be read once, by
    # the row reader; 3,000 rows are far more than one read buffer
    text = _agreement_file(3000, fmt, np.random.default_rng(5))
    plain = tmp_path / "data.csv"
    plain.write_text(text, newline="")
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w", newline="") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    X = cli.load_data(str(fifo))
    writer.join(timeout=10)
    Y = cli.load_data(str(plain))
    assert len(X.values) > 1000
    assert (X.values, X.space.probs) == (Y.values, Y.space.probs)
