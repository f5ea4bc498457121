"""Command-line front end: bundle-spec parsing, subcommands, JSON/DOT
emission, and the brute-force check suites.

Each subcommand's options are declared once, in _COMMANDS: a
well-formed argv is read from that table, and argparse, built from it on
first need, reads any other argv and writes the usage errors and help.

Exit codes: 0 success, 1 usage or parse error, 2 validation error,
3 internal invariant breach (an InvariantBreach, and nothing else).
"""

import argparse
import json
import random
import re
import sys
from argparse import Namespace
from dataclasses import dataclass
from functools import lru_cache

from .bundle import (Atom, PlainBundle, SlBundle, SpBundle, bundle_from_degrees,
                     is_semistable, isotropic_bundle, underlying,
                     vertical_degree, vertical_degree_composite)
from .canon import (ad_degree, ad_degree_max_oracle, canonical_reduction,
                    check_bh, hn_type_of_quotients)
from .errors import HnBundleError, InvariantBreach
from .hnfilt import (extend_with_perps, hn_filtration, hn_filtration_isotropic,
                     hn_uniqueness_oracle)
from .lattice import fundamental_groups, levi_fundamental_groups, \
    obstruction_class, topological_type
from .parabolic import ParabolicIndex
from .rootsys import (GL, SL, SO, SP, GroupFamily, root_name, simple_root_count,
                      weyl_orbit)
from .strata import (enumerate_strata, gl_dominance, hull_membership,
                     hull_membership_lp_oracle, to_dot)


class SpecError(HnBundleError):
    """Bundle-spec text failed to parse; message carries the position or rule."""


@dataclass(frozen=True)
class BundleSpec:
    family: GroupFamily
    bundle: object          # decorated or plain bundle, None for torus-split
    degrees: tuple          # torus-split degree vector, None for atom form


_HEAD = re.compile(r"^(gl|sl|sp|so)(\d+):(.*)$")
_ATOM = re.compile(r"^(-?\d+):(\d+)$")


def parse_bundle_spec(text: str) -> BundleSpec:
    compact = "".join(text.split())
    m = _HEAD.match(compact)
    if not m:
        raise SpecError(f"expected 'family rank : body' at position 0 in {text!r}")
    kind, rank, body = m.group(1), int(m.group(2)), m.group(3)
    family = GroupFamily(kind, rank)
    if body.startswith("deg="):
        try:
            degrees = tuple(int(t) for t in body[4:].split(","))
        except ValueError:
            raise SpecError(f"bad integer in degree list {body[4:]!r}")
        if len(degrees) != family.cartan_dim:
            raise SpecError(
                f"rule degree-length: expected {family.cartan_dim} degrees")
        if kind == SL and sum(degrees) != 0:
            raise SpecError("rule sl-degree-zero: SL degrees must sum to 0")
        return BundleSpec(family, None, degrees)
    zero = 0
    if "|" in body:
        body, tail = body.split("|", 1)
        if not tail.startswith("z="):
            raise SpecError(f"expected 'z=INT' after '|', got {tail!r}")
        try:
            zero = int(tail[2:])
        except ValueError:
            raise SpecError(f"bad integer in zero-block rank {tail[2:]!r}")
        if zero < 0:
            raise SpecError("rule zero-rank: zero-block rank must be nonnegative")
    atoms = []
    for part in body.split(","):
        pm = _ATOM.match(part)
        if not pm or int(pm.group(2)) < 1:
            raise SpecError(f"expected 'degree:rank' atom, got {part!r}")
        atoms.append(Atom(int(pm.group(1)), int(pm.group(2))))
    if kind in (GL, SL):
        if zero:
            raise SpecError("rule zero-block: only sp/so take a zero block")
        b = PlainBundle(tuple(atoms))
        if b.rank != rank:
            raise SpecError(f"rule rank-match: atoms have rank {b.rank}, spec says {rank}")
        if kind == SL:
            if b.degree != 0:
                raise SpecError("rule sl-degree-zero: SL bundle must have degree 0")
            return BundleSpec(family, SlBundle(b), None)
        return BundleSpec(family, b, None)
    if any(a.degree <= 0 for a in atoms):
        raise SpecError("rule positive-slope: sp/so atoms must have slope > 0")
    zpart = (Atom(0, zero),) if zero else ()
    try:
        b = isotropic_bundle(kind, tuple(atoms), zpart)
    except (HnBundleError, ValueError) as exc:
        raise SpecError(f"rule decorated-shape: {exc}")
    if b.rank != rank:
        raise SpecError(f"rule rank-match: total rank {b.rank}, spec says {rank}")
    return BundleSpec(family, b, None)


def serialize_bundle_spec(spec: BundleSpec) -> str:
    head = f"{spec.family.kind}{spec.family.r}: "
    if spec.degrees is not None:
        return head + "deg=" + ",".join(str(d) for d in spec.degrees)
    b = spec.bundle
    if isinstance(b, SlBundle):
        b = b.underlying
    if isinstance(b, PlainBundle):
        return head + ",".join(f"{a.degree}:{a.rank}" for a in b.atoms)
    body = ",".join(f"{a.degree}:{a.rank}" for a in b.positive)
    if b.zero_rank:
        body += f" | z={b.zero_rank}"
    return head + body


def _atom_list(atoms):
    return [[a.degree, a.rank] for a in atoms]


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, pad="\n") -> str:
    """json.dumps(value, indent=2), character for character, as one string:
    pad is the newline and indent of value's own level.  Dispatches on the
    exact type: str, int, bool, None, and dict (with str keys, as every
    document has), list and tuple, both written as JSON arrays; any other
    value takes json.dumps's own text, re-indented to its level."""
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = pad + "  "
        items = [_encode_str(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return json.dumps(value, indent=2).replace("\n", pad)


def _emit(doc, pretty: bool) -> None:
    if pretty:
        width = max(len(k) for k in doc)
        for key, value in doc.items():
            sys.stdout.write(f"{key.ljust(width)}  {json.dumps(value)}\n")
        return
    sys.stdout.write(_json(doc) + "\n")


def _cmd_hn(args) -> dict:
    spec = parse_bundle_spec(args.spec)
    b = bundle_from_degrees(spec.family, spec.degrees) \
        if spec.degrees is not None else spec.bundle
    doc = {"command": "hn", "spec": serialize_bundle_spec(spec)}
    if isinstance(b, (PlainBundle, SlBundle)):
        filt = hn_filtration(b)
        doc["blocks"] = [_atom_list(q.atoms) for q in filt.quotients]
        doc["slopes"] = [str(s) for s in filt.slopes]
    else:
        filt = hn_filtration_isotropic(b)
        doc["blocks"] = [_atom_list(q.atoms) for q in filt.quotients]
        doc["middle_rank"] = sum(a.rank for a in filt.middle)
        doc["rank_flag"] = filt.rank_flag
        doc["full_blocks"] = [_atom_list(q.atoms)
                              for q in extend_with_perps(filt).quotients]
    # the type reads the quotients above, not a second filtration
    mu = hn_type_of_quotients(spec.family, filt.quotients).mu
    doc["type"] = [str(c) for c in mu]
    return doc


def _cmd_semistable(args) -> dict:
    spec = parse_bundle_spec(args.spec)
    b = bundle_from_degrees(spec.family, spec.degrees) \
        if spec.degrees is not None else spec.bundle
    return {"command": "semistable", "spec": serialize_bundle_spec(spec),
            "semistable": is_semistable(b)}


def _parse_levi(family, tokens):
    count = simple_root_count(family)
    names = {root_name(family, i): i for i in range(count)}
    for t in tokens:
        if t not in names:
            # a large family lists only the ends, so the message stays short
            choices = sorted(names) if count <= 16 else (
                f"the {count} names {root_name(family, 0)!r} to "
                f"{root_name(family, count - 1)!r}")
            raise SpecError(f"unknown simple root name {t!r}; choose from {choices}")
    return ParabolicIndex(family, {names[t] for t in tokens})


def _cmd_pi1(args) -> dict:
    family = GroupFamily(args.family, args.rank)
    if args.levi:
        index = _parse_levi(family, args.levi)
        der, pi1, ab = levi_fundamental_groups(family, index)
    else:
        der, pi1, ab = fundamental_groups(family)
    return {"command": "pi1", "family": f"{family.kind}{family.r}",
            "levi": index.names() if args.levi else None,
            "der": der.describe(), "pi1": pi1.describe(), "ab": ab.describe()}


def _cmd_canon(args) -> dict:
    family = GroupFamily(args.family, args.rank)
    red = canonical_reduction(family, args.deg)
    levi_ss, degrees = check_bh(family, args.deg, red)
    free, torsion = obstruction_class(family, args.deg)
    doc = {"command": "canon", "family": f"{family.kind}{family.r}",
           "deg": list(args.deg),
           "mu": [str(c) for c in red.mu.mu],
           "index": red.index.names(),
           "ad_positive_count": len(red.ad_positive_roots),
           "ad_parabolic_rank": len(red.ad_parabolic_roots) + family.torus_dim,
           "levi_semistable": levi_ss,
           "char_degrees": [str(d) for d in degrees],
           "obstruction": {"free": list(free), "torsion": list(torsion)},
           "topological_type": [str(c) for c in topological_type(family, args.deg)]}
    if args.oracle:
        best, argmax = ad_degree_max_oracle(family, args.deg)
        doc["oracle_max"] = best
        doc["oracle_attained"] = ad_degree(family, red.index, red.mu.mu) == best
        doc["oracle_argmax_count"] = len(argmax)
    return doc


def _degree_rank(option, value):
    if len(value) != 2:
        raise ValueError(f"{option} takes exactly degree,rank, got "
                         f"{','.join(str(x) for x in value)}")
    return value


def _nonnegative(option, value):
    if value < 0:
        raise ValueError(f"{option} must be nonnegative, got {value}")


def _cmd_vdeg(args) -> dict:
    e = _degree_rank("--E", args.E)
    f = _degree_rank("--F", args.F)
    family = GroupFamily(args.family, e[1])
    v = vertical_degree(family, e, f)
    w = vertical_degree_composite(family, e, f)
    if v != w:
        raise InvariantBreach(f"vertical degree routes disagree: {v} != {w}")
    return {"command": "vdeg", "family": f"{family.kind}{family.r}",
            "E": list(e), "F": list(f), "vertical_degree": v}


def _cmd_strata(args) -> dict:
    _nonnegative("--bound", args.bound)
    family = GroupFamily(args.family, args.rank)
    poset = enumerate_strata(family, args.bound, args.fix_type)
    dot = to_dot(poset)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(dot)
    return {"command": "strata", "family": f"{family.kind}{family.r}",
            "bound": args.bound,
            "labels": [{"mu": [str(c) for c in s.mu.mu],
                        "index": s.index.names()} for s in poset.labels],
            "covers": sorted(list(e) for e in poset.relation),
            "dot_path": args.dot}


def _suite_hn(rng):
    atoms = tuple(Atom(rng.randint(-3, 3), rng.randint(1, 2))
                  for _ in range(rng.randint(1, 4)))
    b = PlainBundle(atoms)
    family = GroupFamily(GL, b.rank)
    spec = repr(serialize_bundle_spec(BundleSpec(family, b, None)))
    yield (hn_uniqueness_oracle(b), family, spec,
           "the HN filtration is not the unique one")
    slopes = hn_filtration(b).slopes
    yield (list(slopes) == sorted(slopes, reverse=True), family, spec,
           f"HN slopes {[str(x) for x in slopes]} are not decreasing")
    positive = tuple(Atom(rng.randint(1, 3), 1) for _ in range(rng.randint(0, 2)))
    sp = SpBundle(positive, tuple([Atom(0, 1)] * (2 * rng.randint(0, 1))))
    if sp.rank:
        sp_family = GroupFamily(SP, sp.rank)
        yield (extend_with_perps(hn_filtration_isotropic(sp)).quotients ==
               hn_filtration(underlying(sp)).quotients, sp_family,
               repr(serialize_bundle_spec(BundleSpec(sp_family, sp, None))),
               "the isotropic HN filtration completed by perps differs "
               "from the HN filtration of the underlying bundle")


def _suite_canon(rng):
    family = rng.choice([GroupFamily(GL, 3), GroupFamily(SP, 4),
                         GroupFamily(SO, 5)])
    a = tuple(rng.randint(-2, 2) for _ in range(family.cartan_dim))
    red = canonical_reduction(family, a)
    best, _ = ad_degree_max_oracle(family, a)
    attained = ad_degree(family, red.index, red.mu.mu)
    yield (attained == best, family, a,
           f"the canonical reduction has adjoint degree {attained}, "
           f"the oracle maximum is {best}")
    levi_ss, degrees = check_bh(family, a, red)
    yield (levi_ss and all(d > 0 for d in degrees), family, a,
           f"BH conditions fail: levi_semistable={levi_ss}, "
           f"char_degrees={[str(d) for d in degrees]}")


def _suite_hull(rng):
    family = GroupFamily(GL, 3)
    mu = tuple(sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True))
    shift = sum(mu) - sum(m := tuple(
        sorted((rng.randint(-3, 3) for _ in range(3)), reverse=True)))
    nu = (m[0] + shift, m[1], m[2])
    if list(nu) != sorted(nu, reverse=True):
        return
    data = f"mu={mu}, nu={nu}"
    inside = hull_membership(family, mu, nu)
    feasible = hull_membership_lp_oracle(family, mu, nu)
    yield (inside == feasible, family, data,
           f"hull membership is {inside}, the LP oracle says {feasible}")
    dominated = gl_dominance(mu, nu)
    yield (inside == dominated, family, data,
           f"hull membership is {inside}, dominance is {dominated}")


def _suite_lattice(rng):
    family = rng.choice([GroupFamily(GL, 4), GroupFamily(SL, 3),
                         GroupFamily(SP, 6), GroupFamily(SO, 7)])
    a, b = ([rng.randint(-3, 3) for _ in range(family.cartan_dim)]
            for _ in range(2))
    if family.kind == SL:
        a[-1] -= sum(a)
        b[-1] -= sum(b)
    data = f"a={tuple(a)}, b={tuple(b)}"
    fa, ta = obstruction_class(family, a)
    fb, tb = obstruction_class(family, b)
    fs, ts = obstruction_class(family, [x + y for x, y in zip(a, b)])
    yield (fs == tuple(x + y for x, y in zip(fa, fb)), family, data,
           "the free part of the obstruction class is not additive")
    _, pi1, _ = fundamental_groups(family)
    yield (ts == tuple((x + y) % d for x, y, d in zip(ta, tb, pi1.torsion)),
           family, data,
           "the torsion part of the obstruction class is not additive")
    for w in weyl_orbit(family, tuple(a)):
        yield (topological_type(family, w) == topological_type(family, a),
               family, data,
               f"the topological type of a differs at its Weyl translate {w}")
        yield (obstruction_class(family, w) == (fa, ta), family, data,
               f"the obstruction class of a differs at its Weyl translate {w}")


# each suite draws one case from the rng and yields its checks in order,
# as (ok, family, input, what); a case that yields no check is skipped
_SUITES = {"hn": _suite_hn, "canon": _suite_canon,
           "hull": _suite_hull, "lattice": _suite_lattice}


def _cmd_check(args) -> dict:
    _nonnegative("--cases", args.cases)
    rng = random.Random(args.seed)
    passed = 0
    for case in range(args.cases):
        checked = False
        for ok, family, data, what in _SUITES[args.suite](rng):
            # an explicit raise, not assert, so that python -O keeps every check
            if not ok:
                raise InvariantBreach(
                    f"check {args.suite} failed at seed {args.seed}, case {case} "
                    f"({family.kind}{family.r}, input {data}): {what}")
            checked = True
        passed += checked
    return {"command": "check", "suite": args.suite, "seed": args.seed,
            "cases": args.cases, "passed": passed}


# argparse names a rejected value by its type's __name__; a lambda keeps
# the "invalid <lambda> value" text of the usage errors
_int_tuple = lambda text: tuple(int(x) for x in text.split(","))  # noqa: E731

# Each command's function, help and options, as flag -> add_argument
# keywords: build_parser hands them to argparse and _read reads a
# well-formed argv with them.  "spec" is a positional; a dest is argparse's,
# the flag without dashes and with "_" for "-".
_FAMILY = {"required": True, "choices": (GL, SL, SP, SO)}
_INT = {"required": True, "type": int}
_VECTOR = {"required": True, "type": _int_tuple}
_COMMANDS = {
    "hn": (_cmd_hn, "HN filtration and type of a bundle spec", {"spec": {}}),
    "semistable": (_cmd_semistable, "semistability of a bundle spec",
                   {"spec": {}}),
    "pi1": (_cmd_pi1, "fundamental group triple",
            {"--family": _FAMILY, "--rank": _INT,
             "--levi": {"nargs": "*",
                        "help": "simple-root names of the parabolic index"}}),
    "canon": (_cmd_canon, "canonical reduction of torus-split data",
              {"--family": _FAMILY, "--rank": _INT, "--deg": _VECTOR,
               "--oracle": {"action": "store_true", "default": False}}),
    "vdeg": (_cmd_vdeg, "vertical degree of a flag reduction",
             {"--family": _FAMILY, "--E": _VECTOR, "--F": _VECTOR}),
    "strata": (_cmd_strata, "stratification poset",
               {"--family": _FAMILY, "--rank": _INT, "--bound": _INT,
                "--dot": {}, "--fix-type": {"type": int}}),
    "check": (_cmd_check, "run a brute-force oracle suite",
              {"--suite": {"required": True, "choices": sorted(_SUITES)},
               "--seed": {"type": int, "default": 0},
               "--cases": {"type": int, "default": 100}}),
}


@lru_cache(maxsize=1)
def build_parser():
    """The argparse parser of _COMMANDS, built once, on the first argv
    that _read declines: parse_args returns a fresh Namespace and keeps
    no state."""
    p = argparse.ArgumentParser(prog="hnbundles",
                                description="exact HN filtration toolkit")
    p.add_argument("--pretty", action="store_true",
                   help="aligned key/value output instead of JSON")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (fn, text, options) in _COMMANDS.items():
        s = sub.add_parser(name, help=text)
        for flag, keywords in options.items():
            s.add_argument(flag, **keywords)
        s.set_defaults(fn=fn)
    return p


def _value(token):
    """Whether argparse reads token as a value: non-empty, not led by "-"."""
    return token[:1] not in ("", "-")


def _read(argv):
    """build_parser().parse_args(argv), read from _COMMANDS, for an argv
    [--pretty] <command> followed only by: --opt=value; --opt value, with
    a _value; --levi and the _values after it; a bare --oracle; a _value
    as the spec of hn or semistable; each at most once, flags in full.
    None for any other argv."""
    pretty = argv[:1] == ["--pretty"]
    head = argv[1:] if pretty else argv
    entry = _COMMANDS.get(head[0]) if head else None
    if entry is None:
        return None
    fn, _, options = entry
    tokens, found, i = head[1:], {}, 0
    while i < len(tokens):
        token = tokens[i]
        i += 1
        # a positional reads as "spec=token"
        flag, eq, value = ("spec", "=", token) if _value(token) \
            else token.partition("=")
        keywords = options.get(flag)
        if keywords is None or flag in found:
            return None
        if eq and ("action" in keywords or "nargs" in keywords):
            return None
        if "action" in keywords:            # a bare --oracle
            found[flag] = True
            continue
        if "nargs" in keywords:             # --levi and the _values after it
            start = i
            while i < len(tokens) and _value(tokens[i]):
                i += 1
            found[flag] = tokens[start:i]
            continue
        if not eq:
            if i == len(tokens) or not _value(tokens[i]):
                return None
            value, i = tokens[i], i + 1
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        found[flag] = value
    values = {"pretty": pretty, "cmd": head[0], "fn": fn}
    for flag, keywords in options.items():
        if flag not in found and (flag == "spec" or keywords.get("required")):
            return None
        values[flag.lstrip("-").replace("-", "_")] = \
            found.get(flag, keywords.get("default"))
    return Namespace(**values)


def _parse(argv):
    """build_parser().parse_args(argv), read by _read where it can, so
    that well-formed argvs never build argparse; argparse reads any other
    argv (help, an abbreviation, "--", a repeated option, a bad value, a
    missing option) and writes its usage error or help text."""
    args = _read(argv)
    return build_parser().parse_args(argv) if args is None else args


def run_command(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        doc = args.fn(args)
    except SpecError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except InvariantBreach as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 3
    except (HnBundleError, ValueError, OSError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    _emit(doc, args.pretty)
    return 0


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
