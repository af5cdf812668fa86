"""Command-line front end: decide / verify / oracle / fuzz.

Instance files are JSON documents of the form

    {"matrices": [[[1, 0], [0, 0]], [["1/2", -1], [0, "2/3"]]]}

where each entry is a JSON integer or an exact "p/q" string, one that fully
matches [+-]?[0-9]+(/[0-9]+)? with ASCII digits; any other string (an
exponent, a decimal point, an underscore, a space, a non-ASCII digit) and
floating point are rejected with exit 64.  The parsed member list goes as it
is to `Instance.from_int_rows`, so a file of JSON integers only becomes an
`Instance` in one pass, with its integer forms set and no `Mat2` built:
`verify`, `oracle` and `decide` run on the forms, and a file's `Mat2`
members are built only if a pair of it reaches `pairs.decide_pair`.  Only
when that refuses the list (a non-int entry, or a member not two rows of
two) is the same document read again entry by entry, into `Mat2`s or to a
message naming the first bad member or entry.  Reports are printed as JSON
with --json, exactly as `json.dumps(report, indent=2)` writes them, and are
byte-stable for identical inputs apart from the timings block.  `oracle` and
`fuzz` print json.dumps itself; `decide --json` fills one template
(`_decide_json`) and text `decide` reads the verdict, both writing an i V^k j
witness word, as its exponent witness names it, with one string repeat
(`_witness_text`), so the CLI's share of a `decide` op does not grow with the
witness exponent.

Each subcommand's arguments are stated once, in `_COMMANDS`: `build_parser`
makes argparse's parser of it, and `main` matches argv token by token
against it and builds the namespace argparse would give; any argv it does
not match exactly (-h and --help, abbreviations, --opt=value, a bad value,
a missing or extra positional) goes to argparse.  So every usage message,
--help text and exit code is argparse's, as before.

Exit codes: 0 mortal / verified / clean fuzz run, 1 immortal / nonzero
product / contradictions found, 2 unknown verdict, 64 malformed input,
70 engine failure (traceback on stderr, nothing on stdout), 74 standard
output closed before the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
import traceback
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from .decider import Immortal, Instance, Mortal, Unknown, Verdict, decide, verify_witness
from .linalg import Mat2
from .oracle import EntryRange, fuzz_compare, search

EXIT_MORTAL = 0
EXIT_OK = 0
EXIT_IMMORTAL = 1
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_INPUT_ERROR = 64
EXIT_SOFTWARE = 70
EXIT_OUTPUT_ERROR = 74

# each verdict type's name in a report and its exit code
_VERDICTS = {Mortal: ("mortal", EXIT_MORTAL), Immortal: ("immortal", EXIT_IMMORTAL),
             Unknown: ("unknown", EXIT_UNKNOWN)}


class CliError(Exception):
    """Malformed input or usage; reported on stderr with exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(message)


def _at_least_one(text: str) -> int:
    """argparse type for counts and bounds: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_ENTRY_STRING = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_ECHO_CHARS = 40


def _echo(raw: str) -> str:
    """raw quoted for an error message; past _ECHO_CHARS characters, only its
    start and its length, so a huge entry gives a short message."""
    if len(raw) <= _ECHO_CHARS:
        return repr(raw)
    return f"{raw[:_ECHO_CHARS]!r}... ({len(raw)} characters)"


def _parse_entry(raw: object, mi: int, r: int, c: int) -> Fraction:
    """Entry `matrices[mi][r][c]` of an instance file as a `Fraction`; the
    label that names the entry is built only to refuse it."""
    cause = None
    if isinstance(raw, bool):
        problem = "boolean is not a rational entry"
    elif isinstance(raw, int):
        return Fraction(raw)
    elif isinstance(raw, str):
        # Checked first: Fraction() also reads exponents ("1e9999999", a huge
        # integer), decimals, underscores, spaces and non-ASCII digits.
        if not _ENTRY_STRING.fullmatch(raw):
            problem = f"{_echo(raw)} is not an integer or \"p/q\" string"
        else:
            try:
                return Fraction(raw)
            except (ValueError, ZeroDivisionError) as exc:
                problem, cause = f"cannot parse rational string {_echo(raw)} ({exc})", exc
    elif isinstance(raw, float):
        problem = "floating point entries are not accepted; write an exact \"p/q\" string"
    else:
        problem = f"unsupported entry of type {type(raw).__name__}"
    raise CliError(f"matrices[{mi}][{r}][{c}]: {problem}") from cause


def load_instance(path: str) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:
        raise CliError(f"{path} is nested too deeply to parse") from exc
    if not isinstance(doc, dict) or "matrices" not in doc:
        raise CliError(f"{path}: expected an object with a \"matrices\" key")
    raw_matrices = doc["matrices"]
    if not isinstance(raw_matrices, list) or not raw_matrices:
        raise CliError(f"{path}: \"matrices\" must be a nonempty list")
    # A file of JSON integers only, the common case, becomes an instance in
    # one pass: `from_int_rows` refuses a non-int entry (TypeError) and a
    # member that is not two rows of two (ValueError, from unpacking).  Only
    # then is the same document read again, entry by entry through
    # _parse_entry to Mat2s, which names the first bad member or entry.
    try:
        return Instance.from_int_rows(raw_matrices)
    except (TypeError, ValueError):
        pass
    members = []
    for mi, raw_matrix in enumerate(raw_matrices):
        match raw_matrix:  # JSON arrays are lists, the one sequence this matches
            case [[_, _], [_, _]]:
                members.append(Mat2(*(
                    _parse_entry(raw, mi, r, c)
                    for r, row in enumerate(raw_matrix)
                    for c, raw in enumerate(row)
                )))
            case _:
                raise CliError(f"matrices[{mi}]: expected a 2x2 array")
    return Instance(tuple(members))


def _witness_text(verdict: Mortal, sep: str) -> str:
    """sep.join(map(str, verdict.witness)); an i V^k j word, as its exponent
    witness (i, k, j) names it (see `Mortal`), with one string repeat."""
    word = verdict.witness
    if verdict.exponent_witness is None:
        return sep.join(map(str, word))
    i, k, j = verdict.exponent_witness
    return f"{i}{sep}{(str(word[1]) + sep) * k}{j}"


def _decide_json(verdict: Verdict, parse_ms: float, decide_ms: float) -> str:
    """The `decide --json` report of a verdict of `decide` and its two
    timings, exactly as `json.dumps(report, indent=2)` writes it, from one
    template: this is the one place that states the report's fields and
    their order.

    Strings are escaped by `encode_basestring_ascii`, ints written by
    `str`, the witness word by `_witness_text`, and the timings, finite
    floats, by `float.__repr__`, as json.dumps writes them.
    """
    witness = exponent_witnesses = "null"
    search_bound = ""
    if isinstance(verdict, Mortal):
        witness = "[\n    " + _witness_text(verdict, ",\n    ") + "\n  ]"
        if verdict.exponent_witness is not None:
            i, k, j = verdict.exponent_witness
            exponent_witnesses = f"[\n    [\n      {i},\n      {k},\n      {j}\n    ]\n  ]"
    elif isinstance(verdict, Unknown):
        search_bound = f',\n  "search_bound": {verdict.search_bound}'
    return (
        f'{{\n  "verdict": {encode_basestring_ascii(_VERDICTS[type(verdict)][0])},\n'
        f'  "witness": {witness},\n  "exponent_witnesses": {exponent_witnesses},\n'
        f'  "certificate": {encode_basestring_ascii(verdict.certificate)}{search_bound},\n'
        f'  "timings": {{\n    "parse_ms": {parse_ms!r},\n    "decide_ms": {decide_ms!r}\n  }}\n}}'
    )


def _print_text(verdict: Verdict) -> None:
    """The human-readable report of a verdict of `decide`."""
    print(f"verdict: {_VERDICTS[type(verdict)][0]}")
    if isinstance(verdict, Mortal):
        print(f"witness word: {_witness_text(verdict, ' ')}")
        if verdict.exponent_witness is not None:
            i, k, j = verdict.exponent_witness
            print(f"exponent witness: left={i} exponent={k} right={j}")
    print(f"certificate: {verdict.certificate}")


def cmd_decide(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    instance = load_instance(args.file)
    t1 = time.perf_counter()
    verdict = decide(instance, oracle_bound=args.oracle_bound)
    t2 = time.perf_counter()
    parse_ms, decide_ms = round(1000 * (t1 - t0), 3), round(1000 * (t2 - t1), 3)
    if args.json:
        print(_decide_json(verdict, parse_ms, decide_ms))
    else:
        _print_text(verdict)
    return _VERDICTS[type(verdict)][1]


def cmd_verify(args: argparse.Namespace) -> int:
    instance = load_instance(args.file)
    try:
        ok = verify_witness(instance, tuple(args.index))
    except IndexError as exc:
        raise CliError(f"witness {exc}") from exc
    print("zero product" if ok else "nonzero product")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = load_instance(args.file)
    t0 = time.perf_counter()
    word = search(instance, args.max_len)
    elapsed = {"search_ms": round(1000 * (time.perf_counter() - t0), 3)}
    if args.json:
        report = {
            "found": word is not None,
            "witness": word,
            "max_len": args.max_len,
            "timings": elapsed,
        }
        print(json.dumps(report, indent=2))
    else:
        if word is None:
            print(f"no zero product of length <= {args.max_len}")
        else:
            print(f"witness word: {' '.join(map(str, word))}")
    return EXIT_OK if word is not None else EXIT_FAIL


def cmd_fuzz(args: argparse.Namespace) -> int:
    entry_range = EntryRange(max_numerator=args.max_numerator, max_denominator=args.max_denominator)
    report = fuzz_compare(
        count=args.count,
        seed=args.seed,
        bound=args.oracle_bound,
        entry_range=entry_range,
    )
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(
            f"{report.count} instances: {report.mortal} mortal, "
            f"{report.immortal} immortal, {report.unknown} unknown"
        )
        print(f"contradictions: {report.contradictions}")
        if report.mortal_unconfirmed:
            print(f"witnesses beyond the search bound (not contradictions): {report.mortal_unconfirmed}")
    return EXIT_OK if report.contradictions == 0 else EXIT_FAIL


# Each subcommand, stated once: its help, its handler, its single positionals
# as (dest, type) in order, a last one-or-more positional as (dest, type) or
# None, and its options as {option string: (dest, type, default)}, where a
# type of None marks a store-true flag.  `build_parser` and `_match` read it.
_COMMANDS = {
    "decide": ("decide mortality of an instance file", cmd_decide, [("file", str)], None, {
        "--json": ("json", None, False),
        "--oracle-bound": ("oracle_bound", _at_least_one, 8),
    }),
    "verify": ("check a witness word against an instance file", cmd_verify, [("file", str)], ("index", int), {}),
    "oracle": ("bounded brute-force search for a zero product", cmd_oracle, [("file", str)], None, {
        "--json": ("json", None, False),
        "--max-len": ("max_len", _at_least_one, 8),
    }),
    "fuzz": ("cross-validate the decider against the search oracle", cmd_fuzz, [], None, {
        "--json": ("json", None, False),
        "--count": ("count", _at_least_one, 1000),
        "--seed": ("seed", int, 0),
        "--oracle-bound": ("oracle_bound", _at_least_one, 8),
        "--max-numerator": ("max_numerator", _at_least_one, 3),
        "--max-denominator": ("max_denominator", _at_least_one, 3),
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mortality2x2", description="Exact mortality decisions for sets of 2x2 rational matrices.")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, positionals, rest, options) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        for dest, convert in positionals:
            sub.add_argument(dest, type=convert)
        if rest is not None:
            sub.add_argument(rest[0], type=rest[1], nargs="+")
        for option, (dest, convert, default) in options.items():
            kind = {"action": "store_true"} if convert is None else {"type": convert}
            sub.add_argument(option, default=default, dest=dest, **kind)
        sub.set_defaults(func=func)
    return parser


# Built once: parsing keeps no state between calls.  It parses every argv
# that `_match` does not.
_PARSER = build_parser()
# The namespace of each subcommand before any token is read, copied by `_match`.
_DEFAULTS = {
    name: {"command": name, "func": func, **{dest: default for dest, _, default in options.values()}}
    for name, (_, func, _, _, options) in _COMMANDS.items()
}


def _match(argv: Sequence[str]) -> Optional[argparse.Namespace]:
    """`_PARSER.parse_args(argv)` for an argv that `_COMMANDS` matches token
    by token; None for any other, which argparse then parses.

    After the subcommand's name, a flag's option string sets True, and the
    option string of an option with a value takes the next token through its
    type.  Any other token that starts with "-" gives None: -h, --help, an
    abbreviation, --opt=value, "--", "-" and negative numbers among them.  So
    do a value that is missing, starts with "-" or fails its type (any
    exception), a token that is not a string, and too few or too many plain
    tokens for the positionals, which they fill in order.  A one-or-more
    positional next to any option also gives None: argparse splits it there.
    """
    try:
        command = _COMMANDS.get(argv[0]) if argv else None
        if command is None:
            return None
        _, _, positionals, rest, options = command
        values, plain = dict(_DEFAULTS[argv[0]]), []
        tokens = iter(argv[1:])
        for token in tokens:
            if token in options:
                dest, convert, _ = options[token]
                if convert is None:
                    values[dest] = True
                    continue
                value = next(tokens)
                if value.startswith("-"):
                    return None
                values[dest] = convert(value)
            elif token.startswith("-"):
                return None
            else:
                plain.append(token)
        n = len(plain)
        if (n != len(positionals)) if rest is None else (n <= len(positionals) or n < len(argv) - 1):
            return None
        for (dest, convert), token in zip(positionals, plain):
            values[dest] = convert(token)
        if rest is not None:
            dest, convert = rest
            values[dest] = [convert(token) for token in plain[len(positionals):]]
        return argparse.Namespace(**values)
    except Exception:
        return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Entries may have any number of digits: lift the interpreter's limit on
    # int-string conversion, where it has one, while main runs; then restore it.
    saved_limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if saved_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = _match(argv)
        if args is None:
            args = _PARSER.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # The reader of stdout has gone.  Point fd 1 at devnull, so that the
        # interpreter's flush of what is still buffered, at exit, cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OUTPUT_ERROR
    except Exception:
        # No verdict: left uncaught, the exception would exit 1, Immortal's code.
        traceback.print_exc()
        return EXIT_SOFTWARE
    finally:
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)


if __name__ == "__main__":
    sys.exit(main())
