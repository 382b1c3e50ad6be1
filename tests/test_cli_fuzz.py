"""Fuzz of the command line: whatever the flags, ``main(argv)`` exits with
0, 2, 3 or 4, prints no traceback, and every JSON document it prints is
strict JSON (no NaN or Infinity).  ``solve`` runs every method on small
instance files, ``gen`` draws small instances and refuses huge n, and
``urn`` samples small urns and refuses huge ones.
Sweeps and ``--workers`` are left out: their cost grows with the flags,
and they share the parsing fuzzed here."""

import contextlib
import io
import json
import pathlib
import tempfile

from hypothesis import example, given, settings, strategies as st

from rflcs.cli import EXIT_CAPACITY, EXIT_OK, EXIT_USAGE, main
from rflcs.generators import N_MAX
from rflcs.model import Instance, validate_matching
from rflcs.urns import SAMPLER_COUNT_MAX, URN_K_MAX

EXIT_CODES = {0, 2, 3, 4}
BOUND_OPS = ("lambda", "bernstein", "coupon", "occupancy", "p1", "p2", "claim", "regime", "elb")
FLOAT_FLAGS = ("a", "t", "r", "x", "rho", "xi", "p-below", "delta")
INT_FLAGS = ("k", "s", "n", "n-tilde", "b", "regime")

small_ints = st.integers(-3, 40)
wide_ints = small_ints | st.integers(-(10**30), 10**30)
# counts past the urn samplers' cap and urn counts past the k cap, which must
# be refused before allocation
huge_counts = st.integers(SAMPLER_COUNT_MAX + 1, 10**30)
huge_k = st.integers(URN_K_MAX + 1, 10**30)
# ints that do not convert to a float, which the bounds must take from logs
# or refuse with a usage error
beyond_float = st.integers(10**308, 10**400)


def _reject_constant(name):
    raise ValueError(f"non-finite {name} in JSON output")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return code, out.getvalue()


# what a broken integer field of an instance file may hold instead
junk = st.floats() | st.text(max_size=2) | st.booleans() | st.none()


@st.composite
def certificates(draw, x, y):
    """A true planted certificate of x and y: a repetition-free common
    subsequence at positions drawn in x and matched greedily in y."""
    z, pos_x, pos_y = [], [], []
    j = 0
    for i in sorted(draw(st.sets(st.integers(0, max(len(x) - 1, 0)), min_size=1, max_size=4))):
        if i < len(x) and x[i] not in z and x[i] in y[j:]:
            z.append(x[i])
            pos_x.append(i)
            pos_y.append(y.index(x[i], j))
            j = pos_y[-1] + 1
    cert = {"z": z, "positions_x": pos_x, "positions_y": pos_y}
    if draw(st.booleans()):
        cert["l"] = len(z)
    return cert


@st.composite
def instance_docs(draw):
    """A small instance document, maybe with a seed and a true planted
    certificate, valid or with one field broken, so that both the solvers
    and the instance parser are fuzzed.  A broken certificate has an entry
    of one of its lists, or a whole field, replaced by junk or an
    out-of-range int."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(0, 14))  # brute force refuses n > 12
    seq = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    doc = {"n": n, "k": k, "x": draw(seq), "y": draw(seq)}
    broken = draw(st.sampled_from((None, None, "n", "k", "x", "y", "seed", "planted")))
    if draw(st.booleans()):
        doc["seed"] = draw(st.integers(-(10**20), 10**20))
    if broken == "planted" or draw(st.booleans()):
        doc["planted"] = draw(certificates(doc["x"], doc["y"]))
    bad = draw(st.integers(-2, 20) | st.floats(-2, 20) | junk)
    if broken == "planted":
        cert = doc["planted"]
        field = draw(st.sampled_from(("l", "z", "positions_x", "positions_y")))
        if field != "l" and cert[field]:
            cert[field][draw(st.integers(0, len(cert[field]) - 1))] = bad
        else:
            cert[field] = bad
    elif broken is not None:
        doc[broken] = draw(st.just(bad) | st.lists(st.integers(-2, 10), max_size=4))
    return doc


def flags(names, values):
    """Optional ``--name=value`` arguments (the = form lets values start with -)."""
    return st.dictionaries(st.sampled_from(names), values).map(
        lambda d: [f"--{name}={value}" for name, value in d.items()]
    )


@given(
    st.sampled_from(BOUND_OPS),
    flags(FLOAT_FLAGS, st.floats()),
    flags(INT_FLAGS, wide_ints | beyond_float),
)
# a regime-1 n that fits a float, but whose target 2n/sqrt(k) does not
@example("regime", [], ["--regime=1", "--k=2", "--n=1" + "0" * 308])
@settings(max_examples=200, deadline=None)
def test_bounds(op, float_args, int_args):
    code, out = run(["bounds", f"--op={op}", *float_args, *int_args])
    if code == 0:
        assert json.loads(out, parse_constant=_reject_constant)["op"] == op


@given(
    wide_ints | huge_k,
    st.one_of(
        wide_ints.map(lambda s: [f"--s={s}"]),
        st.lists(wide_ints, min_size=1, max_size=4).map(
            lambda v: [f"--s-vec={','.join(map(str, v))}"]
        ),
        st.just([]),
    ),
)
@settings(max_examples=60, deadline=None)
def test_urn_exact(k, s_args):
    code, out = run(["urn-exact", f"--k={k}", *s_args])
    if k > URN_K_MAX:
        assert code in (EXIT_USAGE, EXIT_CAPACITY) and out == ""
    elif code == 0:
        assert len(json.loads(out, parse_constant=_reject_constant)) == k + 1


@given(
    st.integers(-3, 60) | st.integers(N_MAX + 1, 10**30),
    wide_ints,
    wide_ints,
    st.one_of(st.just([]), small_ints.map(lambda l: [f"--planted={l}"])),
)
@settings(max_examples=60, deadline=None)
def test_gen(n, k, seed, planted):
    # n past the generators' cap is refused before any draw
    code, out = run(["gen", f"--n={n}", f"--k={k}", f"--seed={seed}", *planted])
    if n > N_MAX:
        assert code in (EXIT_USAGE, EXIT_CAPACITY) and out == ""
    elif code == 0:
        assert json.loads(out)["n"] == n


@given(
    st.tuples(st.integers(-2, 3), st.integers(-2, 10)).filter(
        lambda nk: nk[0] <= 0 or nk[1] <= 0 or nk[1] ** (2 * nk[0]) <= 100
    )
)
@settings(max_examples=30, deadline=None)
def test_uniformity(nk):
    n, k = nk
    code, out = run(["uniformity", f"--n={n}", f"--k={k}"])
    if code == 0:
        assert json.loads(out)["total_pairs"] == k ** (2 * n)


@given(
    st.sampled_from(("exact", "heuristic", "lcs", "brute")),
    instance_docs(),
    flags(("segment-size",), st.integers(-2, 16)),
    flags(("per-segment",), st.sampled_from(("exact", "lis"))),
)
# a float position used to reach the certificate check and crash it
@example(
    "exact",
    {
        "n": 2, "k": 3, "x": [1, 2], "y": [1, 2],
        "planted": {"z": [1], "positions_x": [0.0], "positions_y": [0]},
    },
    [],
    [],
)
@settings(max_examples=150, deadline=None)
def test_solve(method, doc, size_args, segment_args):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "inst.json"
        path.write_text(json.dumps(doc))
        code, out = run(
            ["solve", f"--input={path}", f"--method={method}", *size_args, *segment_args]
        )
    if code == 0:
        res = json.loads(out, parse_constant=_reject_constant)
        assert res["method"] == method and res["length"] == len(res["edges"])
        # the printed witness is a matching of the instance, repetition-free
        # unless it is a plain LCS, and its symbols are those of its edges
        edges = res["edges"]
        inst = Instance.from_json(json.dumps(doc))
        assert validate_matching(edges, inst, require_repetition_free=method != "lcs")
        assert res["symbols"] == sorted({doc["x"][i] for i, _ in edges})


@given(
    small_ints | huge_k,
    st.one_of(
        (small_ints | huge_counts).map(lambda s: ("--s", s)),
        st.lists(small_ints | huge_counts, min_size=1, max_size=4).map(lambda v: ("--s-vec", v)),
        st.none(),
    ),
    st.integers(-2, 300) | huge_counts,
    wide_ints,
)
@settings(max_examples=100, deadline=None)
def test_urn(k, balls, trials, seed):
    # `urn` checks the group sizes, then k, s and trials, then the caps on k
    # and on the trials and a classical trial's s, before it samples
    argv = ["urn", f"--k={k}", f"--trials={trials}", f"--seed={seed}"]
    if balls is None:
        spec_ok, s = False, 0
    elif balls[0] == "--s":
        spec_ok, s = True, balls[1]
        argv.append(f"--s={s}")
    else:  # the spec checks the group sizes, and no count cap applies to them
        spec_ok, s = k >= 1 and all(0 <= v <= k for v in balls[1]), 0
        argv.append(f"--s-vec={','.join(map(str, balls[1]))}")
    code, out = run(argv)
    if not spec_ok or not (k >= 1 and s >= 0 and trials >= 1):
        assert code == EXIT_USAGE
    elif k > URN_K_MAX or max(s, trials) > SAMPLER_COUNT_MAX:
        assert code == EXIT_CAPACITY and out == ""
    else:
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert [int(row.split(",")[3]) for row in rows] == list(range(k + 1))
