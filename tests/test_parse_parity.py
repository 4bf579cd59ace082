"""`parse` on integer tables against the tuple-keyed parser it replaced.

`tests/triangulation_oracle.py` keeps the old parser unchanged.  On every
input below the two must agree: equal `Triangulation` fields and edge
tables, or the same `TriangulationError` message.  The inputs are the
bundled fixtures, the benchmark's scaling members, seeded relabelings of
the fixtures and a seeded corpus of one-character mutations of them, in
their gluing and in their lengths sections.  The only inputs allowed to
differ are those of three fixes: a header that is not exactly 'tets' and
ASCII digits, a gluing target that `int()` reads but that is not ASCII
digits, and a length that is not ASCII, has a '_' or that `float()` cannot
read.
"""

import itertools
import random
import re

import pytest

from hypcert import triangulation as tr
from tests import triangulation_oracle as oracle
from tests.conftest import data_path
from tests.test_gimbal import scaling_text

FIXTURES = ("dodec27a", "dodec27b", "dodec30x2", "s3_twotet")
# one-character edits: characters of the format, and some that int() or
# float() read in ways the format does not allow
ALPHABET = "0123456789:-+_. \n#tesabcdlngh:e١１x"
MUTATIONS = 2000


def _outcome(parse, text):
    """('ok', triangulation) or ('error', message); any exception other
    than a TriangulationError escapes, and fails the test."""
    try:
        return "ok", parse(text)
    except tr.TriangulationError as exc:
        return "error", str(exc)


def _fixed_input(text):
    """Whether `text` is an input of the three fixes: a header that the
    reference takes for one (it starts with 'tets') but that is not the
    two tokens 'tets' and ASCII digits, a gluing token whose target
    `int()` reads but is not ASCII digits, or a lengths section with a
    value that is not ASCII, has a '_' or that `float()` cannot read."""
    lines = [line.split("#", 1)[0].strip() for line in text.splitlines()]
    lines = [line for line in lines if line]
    if lines and lines[0].startswith("tets"):
        toks = lines[0].split()
        if not (len(toks) == 2 and toks[0] == "tets" and toks[1].isascii()
                and toks[1].isdigit()):
            return True
    in_lengths = False
    for line in lines[1:]:
        if line == "lengths:":
            in_lengths = True
            continue
        # a tet line's gluings follow its first colon
        for tok in line.split() if in_lengths else line.partition(":")[2].split():
            if in_lengths:
                if not tok.isascii() or "_" in tok:
                    return True
                try:
                    float(tok)
                except ValueError:
                    return True
            elif ":" in tok:
                target = tok.partition(":")[0]
                try:
                    int(target)
                except ValueError:
                    continue
                if not (target.isascii() and target.isdigit()):
                    return True
    return False


def assert_same_parse(text):
    """Both parsers agree on `text`, up to the three fixes."""
    try:
        want = _outcome(oracle.parse, text)
    except ValueError as exc:  # the reference lets float()'s error escape
        want = ("escaped", str(exc))
    got = _outcome(tr.parse, text)
    if got[0] == want[0] == "ok":
        # every field of the reference's model, the edge classes and
        # vertex classes with their representatives, in order
        assert oracle.reference(got[1]) == want[1]
        assert got[1].edge_table.tobytes() == want[1].edge_table.tobytes()
    elif got != want:
        assert _fixed_input(text), (text, got, want)
        assert got[0] == "error" and re.search(
            r"^missing 'tets N' header$|^malformed 'tets N' header: |bad target tet in"
            r"|: not a number$", got[1])
    return got[0]


def _text(name):
    return data_path(name + ".tri").read_text()


@pytest.mark.parametrize("name", FIXTURES + tuple(
    f"scaling{k}-seed{seed}" for k in (12, 24) for seed in (1, 2, 3, 7, 8)))
def test_inputs_parse_alike(name):
    if name.startswith("scaling"):
        moves, seed = name[len("scaling"):].split("-seed")
        text = scaling_text(int(moves), int(seed))
    else:
        text = _text(name)
    assert assert_same_parse(text) == "ok"


_EVEN = [p for p in itertools.permutations(range(4)) if tr.perm_parity(p) == 1]


def _relabeled(tri, rng):
    """The gluing text of `tri` with its tets renumbered and each tet's
    vertices relabeled by an even permutation, which keeps every gluing
    odd; the lengths section is kept."""
    n = tri.n_tets
    new_of = list(range(n))
    rng.shuffle(new_of)
    sigma = [rng.choice(_EVEN) for _ in range(n)]
    rows = [None] * n
    for t in oracle.reference(tri).tets:
        row = [None] * 4
        for f, (j, p) in enumerate(zip(t.neighbors, t.perms)):
            inv = tr.perm_inverse(sigma[t.index])
            q = tuple(sigma[j][p[inv[v]]] for v in range(4))  # sigma_j p sigma_t^-1
            row[sigma[t.index][f]] = f"{new_of[j]}:" + "".join(map(str, q))
        rows[new_of[t.index]] = row
    head = f"tets {n}\n" + "".join(f"tet {i}: {' '.join(r)}\n" for i, r in enumerate(rows))
    return head + "lengths:\n" + " ".join(map(repr, tri.lengths or [])) + "\n"


@pytest.mark.parametrize("name", FIXTURES)
def test_relabelings_parse_alike(name):
    tri = tr.parse(_text(name))
    rng = random.Random(f"relabel {name}")
    for _ in range(50):
        text = _relabeled(tri, rng)
        if tri.lengths is None:
            text = text.rsplit("lengths:", 1)[0]
        assert assert_same_parse(text) == "ok"


def _mutated(text, rng, lo, hi):
    """`text` with one character replaced, inserted or deleted at a
    position in [lo, hi)."""
    i = rng.randrange(lo, hi)
    c = rng.choice(ALPHABET)
    edit = rng.randrange(3)
    if edit == 0:
        return text[:i] + c + text[i + 1:]
    if edit == 1:
        return text[:i] + c + text[i:]
    return text[:i] + text[i + 1:]


@pytest.mark.parametrize("name", FIXTURES)
def test_mutations_parse_alike(name):
    text = _text(name)
    rng = random.Random(f"mutate {name}")
    split = text.find("lengths:")
    sections = [(0, split), (split, len(text))] if split >= 0 else [(0, len(text))]
    seen = {"ok": 0, "error": 0}
    for k in range(MUTATIONS):
        lo, hi = sections[k % len(sections)]
        seen[assert_same_parse(_mutated(text, rng, lo, hi))] += 1
    assert seen["error"] > MUTATIONS // 4


# headers that `int()` reads as 27, with the message that rejects each
HEADER_FIXES = (
    ("tetsXYZ 27", "missing 'tets N' header"),
    ("tets 0_27", "malformed 'tets N' header: bad tet count '0_27'"),
    ("tets ２７", "malformed 'tets N' header: bad tet count '２７'"),
    ("tets 27 junk", "malformed 'tets N' header: expected 2 tokens, got 'tets 27 junk'"),
)


def test_fixed_inputs_are_the_only_differences():
    # each fix, on an input the reference accepts or reports otherwise
    text = _text("dodec27a")
    i = text.index(" 10:")
    for target in ("1_0", "+10", "١٠", "１0"):
        bad = text[:i + 1] + target + text[i + 3:]
        assert oracle.parse(bad) == oracle.reference(tr.parse(text))  # int() reads it as 10
        with pytest.raises(tr.TriangulationError,
                           match=re.escape(f": bad target tet in '{target}:")):
            tr.parse(bad)
        assert _fixed_input(bad)
    for header, message in HEADER_FIXES:
        bad = text.replace("tets 27\n", header + "\n", 1)
        assert oracle.parse(bad) == oracle.reference(tr.parse(text))  # int() reads 27
        with pytest.raises(tr.TriangulationError, match=f"^{re.escape(message)}$"):
            tr.parse(bad)
        assert _fixed_input(bad)
    head, lengths = text.split("lengths:\n")
    for first in ("2.789_000514440392784851", "２.789000514440392784851"):
        bad = head + "lengths:\n" + first + lengths[len("2.789000514440392784851"):]
        assert oracle.parse(bad) == oracle.reference(tr.parse(text))  # float() reads it
        with pytest.raises(tr.TriangulationError,
                           match=f"^length 0 is {re.escape(repr(first))}: not a number$"):
            tr.parse(bad)
        assert _fixed_input(bad)
    bad = head + "lengths:\n1.0x " + lengths
    with pytest.raises(ValueError, match="could not convert"):
        oracle.parse(bad)
    with pytest.raises(tr.TriangulationError, match=r"^length 0 is '1\.0x': not a number$"):
        tr.parse(bad)
    assert _fixed_input(bad)
    assert not _fixed_input(text)
