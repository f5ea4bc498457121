"""Command-line front end: bundle-spec parsing, subcommands, and JSON/DOT
emission.  The brute-force suites that check runs live in
hnbundles.oracles, which check loads on its first run.

Each subcommand's options are declared once, in _COMMANDS: a
well-formed argv is read from that table, and argparse, built from it on
first need, reads any other argv.  argparse's usage errors and help are
captured, not written, and run_command writes them as it writes every
answer.  Each command computes only what it prints.

Exit codes: 0 success; 1 a usage error, or a spec that breaks its grammar
or declares a rank its atoms lack; 2 validation error; 3 internal invariant
breach, an InvariantBreach only: a check case that fails or raises.

argparse wraps its usage and help text at 80 columns whatever the
terminal, so an answer is an exact function of its argv, and an
in-process session of run_command calls keeps the answers, (exit code,
stdout, stderr), keyed by the argv as passed, and writes a kept answer
again without parsing or computing.  It never keeps, and always reruns:
a check suite, an argv with --dot (it writes a file), and an exit-3
answer, so that a breach shows on every call.  The answers are bounded by
ANSWER_CACHE_LIMIT characters and evicted least recently used first.  A
one-shot ``python -m hnbundles.cli`` makes one call, and keeps nothing
past it.
"""

import argparse
import json
import re
import sys
import threading
from argparse import Namespace
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial

from .bundle import (_BUNDLE_OF_KIND, Atom, PlainBundle, bundle_from_degrees,
                     is_semistable, vertical_degree)
from .canon import (ad_degree, ad_degree_max_oracle, canonical_reduction,
                    check_bh, hn_type_of_quotients)
from .errors import HnBundleError, InvariantBreach
from .hnfilt import extend_with_perps, hn_filtration, hn_filtration_isotropic
from .lattice import fundamental_groups, levi_fundamental_groups, \
    obstruction_class, topological_type
from .parabolic import ParabolicIndex, _levi_positive_count
from .rootsys import (GL, SL, SO, SP, GroupFamily, positive_root_count,
                      root_name, simple_root_count)
from .strata import enumerate_strata, to_dot


class SpecError(HnBundleError):
    """Bundle-spec text failed to parse; message carries the position or rule."""


@dataclass(frozen=True)
class BundleSpec:
    bundle: object          # torus-split for a deg= spec; its family is the head's
    degrees: tuple          # a deg= spec's degrees, for the echo, else None


_HEAD = re.compile(r"^(gl|sl|sp|so)(\d+):(.*)$")
_ATOM = re.compile(r"^(-?\d+):(\d+)$")


def parse_bundle_spec(text: str) -> BundleSpec:
    """The spec of text, read for its grammar alone: SpecError for a head,
    atom, degree list or '| z=INT' that does not parse, a '|' on GL or SL, or
    a rank the bundle lacks; the model raises every other rule, unwrapped."""
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
        return BundleSpec(bundle_from_degrees(family, degrees), degrees)
    zero = None
    if "|" in body:
        body, tail = body.split("|", 1)
        if not tail.startswith("z="):
            raise SpecError(f"expected 'z=INT' after '|', got {tail!r}")
        try:
            zero = int(tail[2:])
        except ValueError:
            raise SpecError(f"bad integer in zero-block rank {tail[2:]!r}")
    pairs = []
    # an Sp/SO bundle may be its zero block alone: "sp2: | z=2"
    for part in body.split(",") if body or not zero else ():
        pm = _ATOM.match(part)
        if not pm:
            raise SpecError(f"expected 'degree:rank' atom, got {part!r}")
        pairs.append(pm.groups())
    plain = kind in (GL, SL)
    if plain and zero is not None:
        raise SpecError("rule zero-block: only sp/so take a zero block")
    atoms = tuple(Atom(int(d), int(r)) for d, r in pairs)
    cls = _BUNDLE_OF_KIND[kind]
    b = cls(atoms) if plain else cls(atoms, (Atom(0, zero),) if zero else ())
    if b.rank != rank:
        what = "atoms have rank" if plain else "total rank"
        raise SpecError(f"rule rank-match: {what} {b.rank}, spec says {rank}")
    return BundleSpec(b, None)


def serialize_bundle_spec(spec: BundleSpec) -> str:
    b = spec.bundle
    head = f"{b.family}: "
    if spec.degrees is not None:
        return head + "deg=" + ",".join(str(d) for d in spec.degrees)
    if isinstance(b, PlainBundle):
        return head + ",".join(f"{a.degree}:{a.rank}" for a in b.atoms)
    body = ",".join(f"{a.degree}:{a.rank}" for a in b.positive)
    if b.zero_rank:
        body = f"{body} | z={b.zero_rank}".lstrip()
    return head + body


def _blocks(quotients):
    return [[[a.degree, a.rank] for a in q.atoms] for q in quotients]


_encode_str = json.encoder.encode_basestring_ascii


def _json(value, pad="\n") -> str:
    """json.dumps(value, indent=2), character for character, as one string:
    pad is the newline and indent of value's own level.  Dispatches on the
    exact type of the values a document holds: str, int, bool, None, dict
    (with str keys, as every document has) and list; any other type is a
    TypeError."""
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
    if kind is list:
        if not value:
            return "[]"
        inner = pad + "  "
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    raise TypeError(f"a document holds no {kind.__name__}")


def _emit(doc, pretty: bool) -> str:
    """The stdout text of a command's document."""
    if pretty:
        width = max(len(k) for k in doc)
        return "".join(f"{key.ljust(width)}  {json.dumps(value)}\n"
                       for key, value in doc.items())
    return _json(doc) + "\n"


def _cmd_hn(args) -> dict:
    spec = parse_bundle_spec(args.spec)
    b = spec.bundle
    plain = isinstance(b, PlainBundle)
    filt = hn_filtration(b) if plain else hn_filtration_isotropic(b)
    doc = {"spec": serialize_bundle_spec(spec), "blocks": _blocks(filt.quotients)}
    if plain:
        doc["slopes"] = [str(s) for s in filt.slopes]
    else:
        doc["middle_rank"] = sum(a.rank for a in filt.middle)
        doc["rank_flag"] = filt.rank_flag
        doc["full_blocks"] = _blocks(extend_with_perps(filt).quotients)
    # the type reads the quotients above, not a second filtration
    mu = hn_type_of_quotients(b.family, filt.quotients).mu
    doc["type"] = [str(c) for c in mu]
    return doc


def _cmd_semistable(args) -> dict:
    spec = parse_bundle_spec(args.spec)
    return {"spec": serialize_bundle_spec(spec), "semistable": is_semistable(spec.bundle)}


# the name of the i-th simple root, a(i+1),(i+2), but for the last root
# off type A
_LEVI_NAME = re.compile(r"a(\d+),\d+")


def _parse_levi(family, tokens):
    """The parabolic index of the simple-root names tokens, each read in
    closed form: the index its name gives, or the last root, if the
    family names that root so; no table of names is built."""
    count = simple_root_count(family)
    members = set()
    for t in tokens:
        m = _LEVI_NAME.fullmatch(t)
        # an index with more digits than count is out of range unread
        i = int(m[1]) - 1 if m and len(m[1]) <= len(str(count)) else count - 1
        if not (0 <= i < count and root_name(family, i) == t):
            # a large family lists only the ends, so the message stays short
            choices = sorted(root_name(family, j) for j in range(count)) \
                if count <= 16 else (f"the {count} names {root_name(family, 0)!r}"
                                     f" to {root_name(family, count - 1)!r}")
            raise SpecError(f"unknown simple root name {t!r}; choose from {choices}")
        members.add(i)
    return ParabolicIndex(family, members)


def _cmd_pi1(args) -> dict:
    family = GroupFamily(args.family, args.rank)
    if args.levi:
        index = _parse_levi(family, args.levi)
        der, pi1, ab = levi_fundamental_groups(family, index)
    else:
        der, pi1, ab = fundamental_groups(family)
    return {"family": str(family), "levi": index.names() if args.levi else None,
            "der": der.describe(), "pi1": pi1.describe(), "ab": ab.describe()}


def _cmd_canon(args) -> dict:
    family = GroupFamily(args.family, args.rank)
    red = canonical_reduction(family, args.deg)
    levi_ss, degrees = check_bh(family, args.deg, red)
    free, torsion = obstruction_class(family, args.deg)
    positive, levi = positive_root_count(family), _levi_positive_count(red.index)
    doc = {"family": str(family), "deg": list(args.deg),
           "mu": [str(c) for c in red.mu.mu],
           "index": red.index.names(),
           "ad_positive_count": positive - levi,
           "ad_parabolic_rank": positive + levi + family.torus_dim,
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


def _cmd_vdeg(args) -> dict:
    e = _degree_rank("--E", args.E)
    f = _degree_rank("--F", args.F)
    family = GroupFamily(args.family, e[1])
    return {"family": str(family), "E": list(e), "F": list(f),
            "vertical_degree": vertical_degree(family, e, f)}


def _cmd_strata(args) -> dict:
    family = GroupFamily(args.family, args.rank)
    poset = enumerate_strata(family, args.bound, args.fix_type)
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(to_dot(poset))
    return {"family": str(family), "bound": args.bound,
            "labels": [{"mu": [str(c) for c in s.mu.mu],
                        "index": s.index.names()} for s in poset.labels],
            "covers": sorted(list(e) for e in poset.relation),
            "dot_path": args.dot}


# the names of the suites; the suites, in hnbundles.oracles, and the random
# module load on the first check, so that no other command pays for them
_SUITE_NAMES = ("canon", "hn", "hull", "lattice")


def _cmd_check(args) -> dict:
    from random import Random

    from .oracles import _SUITES
    if args.cases < 0:
        raise ValueError(f"--cases must be nonnegative, got {args.cases}")
    rng = Random(args.seed)
    for case in range(args.cases):
        drawn = []
        try:
            for ok, what in _SUITES[args.suite](rng, drawn):
                # an explicit raise, not assert, so that python -O keeps every check
                if not ok:
                    raise InvariantBreach(what)
        except (HnBundleError, ValueError) as exc:
            # a failed check, or a library error on the suite's own input
            where = f" ({drawn[0]}, input {drawn[1]()})" if drawn else ""
            raise InvariantBreach(f"check {args.suite} failed at seed "
                                  f"{args.seed}, case {case}{where}: {exc}")
    # a case that fails raises, so every case run has passed
    return {"suite": args.suite, "seed": args.seed, "cases": args.cases,
            "passed": args.cases}


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
              {"--suite": {"required": True, "choices": _SUITE_NAMES},
               "--seed": {"type": int, "default": 0},
               "--cases": {"type": int, "default": 100}}),
}


# what argparse writes, as (stdout texts, stderr texts), while run_command
# parses an argv on this thread; None outside it
_CAPTURE = threading.local()


@lru_cache(maxsize=1)
def build_parser():
    """The argparse parser of _COMMANDS, built once, on the first argv
    that _read declines: parse_args returns a fresh Namespace and keeps
    no state.  Its usage errors and help are wrapped at 80 columns, the
    text of an 80-column terminal, whatever the terminal; they go to
    run_command's capture while one is open on the calling thread, and
    are written as argparse writes them otherwise."""

    class Parser(argparse.ArgumentParser):
        # every write of argparse's, and of each subparser's, goes here
        def _print_message(self, message, file=None):
            texts = getattr(_CAPTURE, "texts", None)
            if texts is None:
                super()._print_message(message, file)
            elif message:
                texts[file is not sys.stdout].append(message)

    # argparse wraps at the terminal's columns less 2: its text at 80
    wrap = partial(argparse.HelpFormatter, width=78)
    p = Parser(prog="hnbundles", description="exact HN filtration toolkit",
               formatter_class=wrap)
    p.add_argument("--pretty", action="store_true",
                   help="aligned key/value output instead of JSON")
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (fn, text, options) in _COMMANDS.items():
        s = sub.add_parser(name, help=text, formatter_class=wrap)
        for flag, keywords in options.items():
            s.add_argument(flag, **keywords)
        s.set_defaults(fn=fn)
    return p


def _parse(argv):
    """build_parser().parse_args(argv), with argparse's writes captured:
    the Namespace, or on its exit the answer (exit code, stdout text,
    stderr text)."""
    texts = ([], [])
    _CAPTURE.texts = texts
    try:
        return build_parser().parse_args(argv)
    except SystemExit as exc:
        out, err = map("".join, texts)
        return 1 if exc.code else 0, out, err
    finally:
        _CAPTURE.texts = None


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


def _answer(args):
    """(exit code, stdout text, stderr text) of a parsed argv."""
    try:
        doc = {"command": args.cmd, **args.fn(args)}
    except SpecError as exc:
        return 1, "", f"parse error: {exc}\n"
    except InvariantBreach as exc:
        return 3, "", f"internal invariant breach: {exc}\n"
    except (HnBundleError, ValueError, OSError) as exc:
        return 2, "", f"validation error: {exc}\n"
    return 0, _emit(doc, args.pretty), ""


# The answer cache holds at most this many characters, of argv and of
# output, over all its answers.  Characters, not entries, bound its
# memory: strata on GL4 at bound 4 alone prints 98,000.
# At 2**18 the benchmark's seed-1 cli_mix session answers 2,417 of its
# 2,643 repeated argvs from the cache.
ANSWER_CACHE_LIMIT = 2 ** 18

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Answers:
    """Answers by argv tuple, least recently used first, with the count
    of characters they hold, info().currsize; a lock keeps the count
    right when threads share the cache, as lru_cache's does."""

    def __init__(self):
        self.lock = threading.Lock()
        self.clear()

    def clear(self):
        with self.lock:
            self.answers, self.held = OrderedDict(), 0
            self.hits = self.misses = 0

    def info(self):
        return _CacheInfo(self.hits, self.misses, ANSWER_CACHE_LIMIT, self.held)

    def get(self, key):
        with self.lock:
            answer = self.answers.get(key)
            if answer is None:
                self.misses += 1
            else:
                self.hits += 1
                self.answers.move_to_end(key)
            return answer

    def put(self, key, answer):
        """Keep answer under key, in place of any answer key holds: an
        equal one that another thread put after missing too."""
        size = _size(key, answer)
        if size > ANSWER_CACHE_LIMIT:
            return
        with self.lock:
            stale = self.answers.pop(key, None)
            if stale is not None:
                self.held -= _size(key, stale)
            self.answers[key] = answer
            self.held += size
            while self.held > ANSWER_CACHE_LIMIT:
                self.held -= _size(*self.answers.popitem(last=False))


def _size(key, answer):
    return sum(map(len, key)) + len(answer[1]) + len(answer[2])


_ANSWERS = _Answers()


def run_command(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    key = tuple(argv)
    answer = _ANSWERS.get(key)
    if answer is None:
        # _read reads a well-formed argv, so that it never builds
        # argparse; argparse reads any other (help, an abbreviation, "--",
        # a repeated option, a bad value, a missing option), and answers
        # a usage error or help itself
        args = _read(argv)
        if args is None:
            args = _parse(argv)
        if isinstance(args, Namespace):
            answer = _answer(args)
            kept = args.cmd != "check" and answer[0] != 3 \
                and getattr(args, "dot", None) is None
        else:
            answer, kept = args, True
        if kept:
            _ANSWERS.put(key, answer)
    code, out, err = answer
    # an error answer leaves stdout untouched, as a closed one may be
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


run_command.cache_info = _ANSWERS.info
run_command.cache_clear = _ANSWERS.clear


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
