"""The three seeded workloads: input generators, one op each, and the
checks that every op's output is right.

Every generator is a pure function of its seed and yields ops lazily;
the program under test sees only the generated inputs.  Checks run
outside the timed region and use their own root-system arithmetic
(below) wherever the program's answer is the thing being checked.

Program functions are always called through their module attribute
(``canon.canonical_reduction``), so that a traced run, which rebinds
those attributes, sees every call.
"""

import contextlib
import io
import json
import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

from hnbundles import canon, cli, rootsys, strata

# All families with cartan_dim <= 4, in a fixed order.
FAMILIES = ([("gl", r) for r in (2, 3, 4)] + [("sl", r) for r in (2, 3, 4)]
            + [("sp", r) for r in (2, 4, 6, 8)]
            + [("so", r) for r in range(3, 10)])


class Failed(Exception):
    """An op broke the program's contract (crash, exit 3, refused valid input)."""


class Wrong(Exception):
    """An op returned, but its output is not the right answer."""


def expect(cond, what):
    if not cond:
        raise Wrong(what)


# ---------------------------------------------------------------------------
# Independent root-system arithmetic for the classical families.

def cartan_dim(kind, r):
    return r if kind in ("gl", "sl") else r // 2


def unit(i, dim, c=1):
    return tuple(c if j == i else 0 for j in range(dim))


def simple_roots(kind, r):
    dim = cartan_dim(kind, r)
    out = [tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(dim))
           for i in range(dim - 1)]
    if kind == "sp":
        out.append(unit(dim - 1, dim, 2))
    elif kind == "so" and r % 2:
        out.append(unit(dim - 1, dim))
    elif kind == "so":
        out.append(tuple(1 if j >= dim - 2 else 0 for j in range(dim)))
    return out


def root_names(kind, r):
    """CLI display names of the simple roots, in order."""
    n = cartan_dim(kind, r)
    names = [f"a{i + 1},{i + 2}" for i in range(n - 1)]
    if kind == "sp":
        names.append(f"2a{n}")
    elif kind == "so":
        names.append(f"a{n}" if r % 2 else f"a{n - 1}+a{n}")
    return names


def is_dominant(kind, r, v):
    return all(sum(a * x for a, x in zip(alpha, v)) >= 0
               for alpha in simple_roots(kind, r))


def dominant_rep(kind, r, v):
    """Dominant point of the Weyl orbit of v, in closed form per type."""
    if kind in ("gl", "sl"):
        return tuple(sorted(v, reverse=True))
    out = sorted((abs(x) for x in v), reverse=True)
    if kind == "so" and r % 2 == 0 and all(v):
        # type D: only even numbers of sign changes
        negatives = sum(1 for x in v if x < 0)
        if negatives % 2:
            out[-1] = -out[-1]
    return tuple(out)


def simple_root_coeffs(kind, r, d):
    """Exact c with d = sum c_i alpha_i, or None when d is off the root span.

    Closed form by partial sums s_i = d_1 + ... + d_i: c_i = s_i except
    at the end of the diagram (C: c_n = s_n / 2; D: the fork splits
    s_{n-1} and d_n between the two end roots).
    """
    s, acc = [], 0
    for x in d:
        acc += x
        s.append(Fraction(acc))
    if kind in ("gl", "sl"):
        return s[:-1] if s[-1] == 0 else None
    if kind == "sp":
        return s[:-1] + [s[-1] / 2]
    if r % 2:
        return s
    return s[:-2] + [(s[-2] - d[-1]) / 2, s[-1] / 2]


def kostant_hull(kind, r, mu, nu):
    """Kostant: for dominant mu, nu, nu lies in conv(W.mu) exactly when
    mu - nu is a nonnegative rational combination of simple roots."""
    c = simple_root_coeffs(kind, r, [a - b for a, b in zip(mu, nu)])
    return c is not None and all(x >= 0 for x in c)


def lattice_points(kind, r, bound):
    """Integer vectors in [-bound, bound]^dim (SL: trace zero)."""
    dim = cartan_dim(kind, r)
    return [v for v in product(range(-bound, bound + 1), repeat=dim)
            if kind != "sl" or sum(v) == 0]


def family_obj(kind, r):
    return rootsys.GroupFamily(kind, r)


# ---------------------------------------------------------------------------
# canon_oracle: criterion 6 on one (family, degree vector) per op.

def canon_inputs(seed):
    """Every (family, a) with a in [-2,2]^dim, shuffled: no input repeats.

    The first vector of each family is a warm-up op, run before timing."""
    rng = random.Random(seed)
    pools = {}
    for kind, r in FAMILIES:
        pool = lattice_points(kind, r, 2)
        rng.shuffle(pool)
        pools[(kind, r)] = pool
    warm = [(fam, pools[fam].pop()) for fam in FAMILIES]
    rest = [(fam, a) for fam in FAMILIES for a in pools[fam]]
    rng.shuffle(rest)
    yield from warm
    yield from rest


def canon_op(item):
    (kind, r), a = item
    family = family_obj(kind, r)
    red = canon.canonical_reduction(family, a)
    best, argmax = canon.ad_degree_max_oracle(family, a)
    levi_ss, degrees = canon.check_bh(family, a, red)
    return family, red, best, argmax, levi_ss, degrees


def canon_check(item, out):
    (kind, r), a = item
    family, red, best, argmax, levi_ss, degrees = out
    mu = red.mu.mu
    expect(mu == dominant_rep(kind, r, a), "mu is not the dominant point of a")
    expect(canon.ad_degree(family, red.index, mu) == best,
           "canonical reduction does not attain the oracle maximum")
    expect(levi_ss and all(d > 0 for d in degrees), "BH conditions fail")
    expect(all(index.members >= red.index.members for index, _ in argmax),
           "an attaining parabolic does not contain the canonical index")


# ---------------------------------------------------------------------------
# hull_query: one hull_membership(family, mu, nu) per op.

def hull_inputs(seed):
    """Pairs of dominant vectors in [-3,3]^dim, without replacement.

    Ops go in passes over the families that have pairs left, each pass in
    a fresh shuffled order, one pair per family; so every family gets the
    same share of ops until its pool runs out.  Within a family, mu goes
    in shuffled passes over the dominant vectors and nu is mu's next
    unused partner, because the cost is set mostly by |W.mu|.  The first
    pass is warm-up."""
    rng = random.Random(seed)
    streams = {}
    for kind, r in FAMILIES:
        dom = [v for v in lattice_points(kind, r, 3) if is_dominant(kind, r, v)]
        streams[(kind, r)] = _pairs(rng, dom)
    live = list(FAMILIES)
    while live:
        rng.shuffle(live)
        for fam in list(live):
            pair = next(streams[fam], None)
            if pair is None:
                live.remove(fam)
            else:
                yield fam, pair


def _pairs(rng, dom):
    """Every (mu, nu) in dom x dom once, mu cycling in shuffled passes."""
    partners = {mu: rng.sample(dom, len(dom)) for mu in dom}
    for k in range(len(dom)):
        for mu in rng.sample(dom, len(dom)):
            yield mu, partners[mu][k]


def hull_op(item):
    (kind, r), (mu, nu) = item
    return strata.hull_membership(family_obj(kind, r), mu, nu)


def hull_check(item, out):
    (kind, r), (mu, nu) = item
    if kind in ("gl", "sl"):
        want = strata.gl_dominance(mu, nu)
    else:
        want = kostant_hull(kind, r, mu, nu)
    expect(out is want, f"hull_membership{(kind, r, mu, nu)} = {out}")


# ---------------------------------------------------------------------------
# cli_mix: an in-process session of run_command calls.
#
# Ops come in blocks of BLOCK, each with a fixed count per kind, shuffled
# within the block.  The counts fix the shares exactly, whatever the
# seed: CLI_MIX are fresh valid argvs, REPEATS re-issue the latest earlier
# argv of their kind, INVALID are malformed argvs, one of which is the
# known exit-3 defect.

CLI_MIX = {"hn": 9, "semistable": 5, "pi1": 6, "canon": 8, "vdeg": 5,
           "strata": 1, "check": 1}
REPEATS = {"hn": 3, "semistable": 2, "pi1": 2, "canon": 3, "vdeg": 2}
KNOWN_DEFECT = "canon_deg_length"
INVALID = ["bad_command", "bad_spec", "sl_degree", "odd_sp", "so2",
           "strata_guard", "deg_space", KNOWN_DEFECT]
BLOCK = sum(CLI_MIX.values()) + sum(REPEATS.values()) + len(INVALID)


def cycle(rng, options):
    """Endless passes over options, each in a fresh shuffled order, so
    every option gets the same share of draws whatever the seed."""
    options = list(options)
    while True:
        rng.shuffle(options)
        yield from options


def _atoms_text(atoms):
    return ",".join(f"{d}:{k}" for d, k in atoms)


def _gen_hn(rng):
    if rng.random() < 0.5:
        atoms = [(rng.randint(-3, 3), rng.randint(1, 2))
                 for _ in range(rng.randint(1, 4))]
        r = sum(k for _, k in atoms)
        return {"spec": f"gl{r}: {_atoms_text(atoms)}", "kind": "gl",
                "atoms": atoms, "zero": 0}
    kind = rng.choice(["sp", "so"])
    atoms = [(rng.randint(1, 3), rng.randint(1, 2))
             for _ in range(rng.randint(1, 3))]
    zero = 2 * rng.randint(0, 2) if kind == "sp" else rng.randint(1, 3)
    r = 2 * sum(k for _, k in atoms) + zero
    return {"spec": f"{kind}{r}: {_atoms_text(atoms)} | z={zero}",
            "kind": kind, "atoms": atoms, "zero": zero}


def families_up_to(max_rank, min_rank=2):
    """Every valid (kind, r) with min_rank <= r <= max_rank."""
    return [(k, r) for k in ("gl", "sl", "sp", "so")
            for r in range(max(min_rank, 3 if k == "so" else 2), max_rank + 1)
            if k != "sp" or r % 2 == 0]


STRATA_CONFIGS = [(fam, bound) for fam in FAMILIES if cartan_dim(*fam) <= 3
                  for bound in (1, 2)]


def cli_picks(rng):
    """Per-kind cycles of the settings that set an op's cost: the family
    of each pi1 (and the part of --levi: none, one root or half of them),
    canon, semistable and vdeg call, and the (family, bound) of each
    strata call.  Costs span one to
    two orders of magnitude across them, so they are cycled, not drawn."""
    return {"semistable": cycle(rng, families_up_to(8)),
            "pi1": cycle(rng, product(families_up_to(12), (0, 1, 2))),
            "canon": cycle(rng, families_up_to(8)),
            "vdeg": cycle(rng, families_up_to(8, min_rank=3)),
            "strata": cycle(rng, STRATA_CONFIGS)}


def _degree_vector(rng, kind, r, bound):
    v = [rng.randint(-bound, bound) for _ in range(cartan_dim(kind, r))]
    if kind == "sl":
        v[-1] -= sum(v)
    return v


def _csv(v):
    return ",".join(str(x) for x in v)


def cli_valid(rng, kind, picks):
    """One fresh valid argv of the given kind, with what its check needs;
    picks is cli_picks(rng)."""
    if kind == "hn":
        p = _gen_hn(rng)
        return ["hn", p["spec"]], p
    if kind == "semistable":
        fam = next(picks["semistable"])
        deg = _degree_vector(rng, *fam, 2)
        return ["semistable", f"{fam[0]}{fam[1]}: deg={_csv(deg)}"], \
            {"family": fam, "deg": deg}
    if kind == "pi1":
        fam, levi_part = next(picks["pi1"])
        argv = ["pi1", f"--family={fam[0]}", f"--rank={fam[1]}"]
        levi = None
        if levi_part:
            # one root, or half of them: the size sets the cost
            names = root_names(*fam)
            size = 1 if levi_part == 1 else max(1, len(names) // 2)
            levi = sorted(rng.sample(range(len(names)), size))
            argv += ["--levi"] + [names[i] for i in levi]
        return argv, {"family": fam, "levi": levi}
    if kind == "canon":
        fam = next(picks["canon"])
        deg = _degree_vector(rng, *fam, 3)
        return ["canon", f"--family={fam[0]}", f"--rank={fam[1]}",
                f"--deg={_csv(deg)}"], {"family": fam, "deg": deg}
    if kind == "vdeg":
        fam = next(picks["vdeg"])
        k, r = fam
        if k in ("gl", "sl"):
            e = (rng.randint(-5, 5) if k == "gl" else 0, r)
            f = (rng.randint(-5, 5), rng.randint(1, r - 1))
        else:
            e = (0, r)
            f = (rng.randint(-5, 5), rng.randint(1, r // 2))
        return ["vdeg", f"--family={k}", f"--E={_csv(e)}", f"--F={_csv(f)}"], \
            {"family": fam, "E": e, "F": f}
    if kind == "strata":
        fam, bound = next(picks["strata"])
        return ["strata", f"--family={fam[0]}", f"--rank={fam[1]}",
                f"--bound={bound}"], {"family": fam, "bound": bound}
    suite = rng.choice(["lattice", "hn"])
    cases = rng.randint(2, 4)
    return ["check", f"--suite={suite}", f"--seed={rng.randint(0, 999)}",
            f"--cases={cases}"], {"cases": cases}


def cli_invalid(rng, kind):
    """One malformed argv; README: exit 1 (parse) or 2 (validation)."""
    if kind == "bad_command":
        return ["bogus"]
    if kind == "bad_spec":
        return ["hn", rng.choice(["gl4: 3:x", "gl4 3:1", "gl4: 1:1",
                                  "sp4: -1:1 | z=2", "gl3: 1:1 | z=2"])]
    if kind == "sl_degree":
        return ["semistable", f"sl3: deg=1,{rng.randint(0, 2)},1"]
    if kind == "odd_sp":
        return ["pi1", "--family=sp", f"--rank={rng.choice([3, 5, 7])}"]
    if kind == "so2":
        return ["pi1", "--family=so", "--rank=2"]
    if kind == "strata_guard":
        return ["strata", "--family=gl", f"--rank={rng.randint(5, 6)}",
                "--bound=1"]
    if kind == "deg_space":
        # a negative value after a space reads as an option to argparse
        return ["canon", "--family=gl", "--rank=2", "--deg", "-1,2"]
    # known defect: a degree vector of the wrong length exits 3
    r = rng.randint(2, 4)
    return ["canon", "--family=gl", f"--rank={r}",
            f"--deg={_csv([1] * (r - 1))}"]


def cli_inputs(seed):
    """(kind, argv, params) ops; params is None for an invalid argv."""
    rng = random.Random(seed)
    picks = cli_picks(rng)
    latest = {}
    while True:
        block = [("fresh", k) for k, n in CLI_MIX.items() for _ in range(n)]
        block += [("repeat", k) for k, n in REPEATS.items() for _ in range(n)]
        block += [("invalid", k) for k in INVALID]
        rng.shuffle(block)
        for how, kind in block:
            if how == "invalid":
                yield kind, cli_invalid(rng, kind), None
            elif how == "repeat" and kind in latest:
                yield latest[kind]
            else:
                # a repeat before any argv of its kind issues a fresh one
                argv, params = cli_valid(rng, kind, picks)
                latest[kind] = (kind, argv, params)
                yield latest[kind]


def cli_op(item):
    _, argv, _ = item
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run_command(list(argv))
    return code, out.getvalue(), err.getvalue()


def _groups(text):
    """(free rank, torsion orders) of a FinAbGroup description."""
    if text == "1":
        return 0, ()
    parts = text.split(" x ")
    return parts.count("Z"), tuple(int(p[2:]) for p in parts if p != "Z")


PI1_TABLE = {"gl": ("1", "Z", "Z"), "sl": ("1", "1", "1"),
             "sp": ("1", "1", "1"), "so": ("Z/2", "Z/2", "1")}


def cli_check(item, out):
    kind, argv, p = item
    code, stdout, stderr = out
    if p is None:
        if code in (1, 2) and stderr.strip():
            return
        if code == 0:
            raise Wrong(f"invalid argv accepted: {argv}")
        raise Failed(f"exit {code} on invalid argv {argv}: {stderr.strip()}")
    if code != 0:
        raise Failed(f"exit {code} on valid argv {argv}: {stderr.strip()}")
    doc = json.loads(stdout)
    expect(doc["command"] == argv[0], "wrong command echoed")
    if kind == "hn":
        coords = [Fraction(d, k) for d, k in p["atoms"] for _ in range(k)]
        if p["kind"] != "gl":
            coords += [Fraction(0)] * (p["zero"] // 2)
        expect([Fraction(c) for c in doc["type"]]
               == sorted(coords, reverse=True), f"hn type of {argv}")
    elif kind == "semistable":
        deg = p["deg"]
        want = len(set(deg)) == 1 if p["family"][0] in ("gl", "sl") \
            else not any(deg)
        expect(doc["semistable"] is want, f"semistability of {argv}")
    elif kind == "pi1":
        fk, r = p["family"]
        if p["levi"] is None:
            expect((doc["der"], doc["pi1"], doc["ab"]) == PI1_TABLE[fk],
                   f"pi1 table for {fk}{r}")
        else:
            # the free rank of pi1(L) is the dimension of the centre of L
            centre = len(p["levi"]) + (fk == "gl")
            expect(_groups(doc["der"])[0] == 0
                   and _groups(doc["pi1"])[0] == centre
                   and _groups(doc["ab"]) == (centre, ()),
                   f"Levi pi1 of {argv}")
    elif kind == "canon":
        fk, r = p["family"]
        mu = tuple(Fraction(c) for c in doc["mu"])
        expect(is_dominant(fk, r, mu), f"mu not dominant for {argv}")
        expect(mu == dominant_rep(fk, r, p["deg"]), f"mu off the orbit for {argv}")
        expect(all(Fraction(c) > 0 for c in doc["char_degrees"]),
               f"char degree not positive for {argv}")
        expect(doc["levi_semistable"] is True, f"Levi not semistable for {argv}")
    elif kind == "vdeg":
        fk, r = p["family"]
        (d, _), (f, l) = p["E"], p["F"]
        v = doc["vertical_degree"]
        if fk in ("gl", "sl"):
            expect((v >= 0) == (Fraction(f, l) <= Fraction(d, r)),
                   f"vdeg sign for {argv}")
        elif fk == "sp" or r % 2 or l != r // 2 - 1:
            expect((v >= 0) == (f <= 0), f"vdeg sign for {argv}")
    elif kind == "strata":
        fk, r = p["family"]
        want = sum(1 for v in lattice_points(fk, r, p["bound"])
                   if is_dominant(fk, r, v))
        expect(len(doc["labels"]) == want, f"strata label count for {argv}")
    else:
        expect(doc["passed"] == doc["cases"] == p["cases"], f"check {argv}")


def family_label(item):
    return "%s%d" % item[0]


def kind_label(item):
    return item[0]


Workload = namedtuple("Workload", "inputs op check warm ops label")
"""inputs(seed) yields items; op(item) is the timed call; check(item,
output) raises Failed or Wrong; the first `warm` items are not timed,
and a run times the next `ops`; label(item) names the item's family or
kind in the recorded mix.  `ops` is sized so that a run takes 20-30 s
on a 2-vCPU Intel Xeon VM.  cli_mix times whole blocks, and so does each
half of a traced run: every block holds one known-defect op, so the
count of failed ops is the same for every seed."""

WORKLOADS = {
    "canon_oracle": Workload(canon_inputs, canon_op, canon_check,
                             len(FAMILIES), 1500, family_label),
    "hull_query": Workload(hull_inputs, hull_op, hull_check, len(FAMILIES),
                           4000, family_label),
    "cli_mix": Workload(cli_inputs, cli_op, cli_check, 0, 90 * BLOCK,
                        kind_label),
}
