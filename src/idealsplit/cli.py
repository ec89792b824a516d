"""Command-line front end.

Subcommands: validate, split, lift, gen, gamma-check, coherence-check.
Exit codes are disjoint and exhaustive: 0 success, 1 a semantic check
failed (validation, obstruction, lift hypothesis, defect not
applicable, any other library error), 2 the input could not be loaded
or the arguments are bad, 3 the constructive builder and the exhaustive
oracle disagreed, which is a bug trap and must never happen.

All randomness flows from --seed; check reports (validate, split and
coherence-check) print as text by default and as canonical JSON with
--format json; output documents go to stdout or to the --output path,
written atomically.
"""

import argparse
import sys

from .errors import (IdealSplitError, SchemaError, SizeBoundError,
                     SplittingObstructionError)
from .fileformat import (MAX_RANK, dumps_canonical, instance_from_json,
                         instance_to_json, iso_input_from_json, iso_to_json,
                         load_file, save_file, splitting_to_json)
from .fixtures import (COEFFICIENTS, DEFECT_KINDS, dp_truncation,
                       plant_defect, random_instance)
from .kunneth import (check_coherence, check_family_coherence,
                      validate_instance)
from .splitter import (build_ideal_splitting, check_gamma_exact,
                       exhaustive_ideal_splittings, full_section,
                       lift_isomorphism, verify_ideal_splitting)

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2
EXIT_ORACLE = 3

# Largest --p that gen dp accepts: dp_truncation tests primality by
# trial division, whose time grows as the square root of p.
MAX_DP_PRIME = 10 ** 9


def _load_instance(path):
    return instance_from_json(load_file(path))


def _print_results(results, fmt):
    write = sys.stdout.write
    ok = all(r.passed for r in results)
    if fmt == "json":
        write(dumps_canonical(
            {"ok": ok,
             "checks": [{"name": r.name, "ok": r.passed,
                         "witness": r.witness} for r in results]}))
    else:
        for r in results:
            if r.passed:
                write("ok   %s\n" % r.name)
            else:
                write("FAIL %s: %s\n" % (r.name, r.witness))
        failed = sum(1 for r in results if not r.passed)
        if failed:
            write("%d of %d checks failed\n" % (failed, len(results)))
        else:
            write("all %d checks passed\n" % len(results))
    return ok


def _write_doc(doc, args):
    if args.output:
        save_file(args.output, doc)
    else:
        sys.stdout.write(dumps_canonical(doc))


def cmd_validate(args):
    inst, family = _load_instance(args.path)
    results = list(validate_instance(inst).results)
    if family is not None:
        results += list(check_coherence(family).results)
    return EXIT_OK if _print_results(results, args.format) else EXIT_CHECK


def cmd_split(args):
    inst, _ = _load_instance(args.path)
    if not args.force:
        report = validate_instance(inst)
        if not report.ok:
            _print_results(report.results, args.format)
            return EXIT_CHECK
    obstruction = None
    fam = None
    try:
        # the gate above (or --force) already decided on validity
        fam = build_ideal_splitting(inst, validate=False)
    except SplittingObstructionError as exc:
        obstruction = exc

    if args.oracle:
        try:
            secs = exhaustive_ideal_splittings(inst, bound=args.bound)
        except SizeBoundError as exc:
            sys.stderr.write("oracle skipped: %s\n" % exc)
        else:
            if fam is None and secs:
                sys.stderr.write(
                    "ORACLE DISAGREEMENT: builder found no splitting but "
                    "%d ideal-respecting sections exist\n" % len(secs))
                return EXIT_ORACLE
            if fam is not None:
                feasible = {s.matrix for s in secs}
                if full_section(inst, fam).matrix not in feasible:
                    sys.stderr.write(
                        "ORACLE DISAGREEMENT: built section is outside "
                        "the feasible set\n")
                    return EXIT_ORACLE
                sys.stderr.write("oracle agrees: %d feasible sections\n"
                                 % len(secs))

    if fam is None:
        sys.stderr.write("no ideal splitting: %s (blocking ideal %r)\n"
                         % (obstruction, obstruction.ideal))
        return EXIT_CHECK
    check = verify_ideal_splitting(inst, fam)
    if not check.ok:
        _print_results(check.results, args.format)
        return EXIT_CHECK
    _write_doc(splitting_to_json(fam), args)
    return EXIT_OK


def cmd_lift(args):
    inst_a, _ = _load_instance(args.path_a)
    inst_b, _ = _load_instance(args.path_b)
    phi0, phi1, pairing = iso_input_from_json(load_file(args.iso),
                                              inst_a, inst_b)
    iso = lift_isomorphism(inst_a, inst_b, phi0, phi1, pairing)
    _write_doc(iso_to_json(iso), args)
    return EXIT_OK


def _parse_coeffs(text):
    try:
        coeffs = tuple(sorted({int(x) for x in text.split(",")}))
    except ValueError:
        raise SchemaError("--coeffs wants a comma-separated integer list")
    if not coeffs or any(n < 2 for n in coeffs):
        raise SchemaError("--coeffs entries must be integers >= 2")
    return coeffs


def cmd_gen(args):
    coeffs = _parse_coeffs(args.coeffs) if args.coeffs else COEFFICIENTS
    if args.gen_kind in ("aligned", "twisted"):
        inst = random_instance(args.seed, coeffs,
                               twist=args.gen_kind == "twisted")
    elif args.gen_kind == "dp":
        if args.p is None or args.m is None or args.k is None:
            raise SchemaError("gen dp needs --p, --m and --k")
        # checked before anything is built: Kn has rank 2m + 1 and its
        # maps are dense
        if args.p > MAX_DP_PRIME:
            raise SchemaError("--p %d exceeds the limit %d"
                              % (args.p, MAX_DP_PRIME))
        if 2 * args.m + 1 > MAX_RANK:
            raise SchemaError("--m %d gives Kn rank %d, over the limit %d"
                              % (args.m, 2 * args.m + 1, MAX_RANK))
        try:
            inst = dp_truncation(args.p, args.m, args.k)
        except ValueError as exc:
            # a --p, --m or --k that dp_truncation's checks reject
            raise SchemaError(str(exc))
    else:
        if args.kind is None:
            raise SchemaError("gen defect needs --kind")
        if args.base:
            base, _ = _load_instance(args.base)
        else:
            base = random_instance(args.seed, coeffs, twist=False)
        inst = plant_defect(base, args.kind)
    _write_doc(instance_to_json(inst), args)
    return EXIT_OK


def cmd_gamma_check(args):
    inst, _ = _load_instance(args.path)
    parts = [x for x in args.parts.split(",") if x]
    if not parts:
        raise SchemaError("--parts names no ideal")
    unknown = [x for x in parts + [args.ideal] if x not in inst.order.nodes]
    if unknown:
        raise SchemaError("unknown ideal id %r" % unknown[0])
    witness = check_gamma_exact(inst, args.ideal, parts)
    if witness is None:
        sys.stdout.write("Gamma complex is exact at %r over %s\n"
                         % (args.ideal, parts))
        return EXIT_OK
    sys.stdout.write("FAIL gamma-exactness: %s\n" % witness)
    return EXIT_CHECK


def cmd_coherence_check(args):
    _, family = _load_instance(args.path)
    if family is None:
        raise SchemaError("file carries no coherent-family block")
    results = list(check_coherence(family).results)
    if family.sigmas is not None:
        results += check_family_coherence(family).results
    return EXIT_OK if _print_results(results, args.format) else EXIT_CHECK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="idealsplit",
        description="validate, split, and transport ideal-filtered "
                    "K-theory instances")
    sub = parser.add_subparsers(dest="command", required=True)

    # only the commands that print a check report read --format
    def format_option(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    def output_option(p):
        p.add_argument("-o", "--output", default=None,
                       help="write the result document here instead of "
                            "stdout")

    p = sub.add_parser("validate", help="run every structural check")
    p.add_argument("path")
    format_option(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("split", help="build and verify a splitting family")
    p.add_argument("path")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against exhaustive enumeration")
    p.add_argument("--bound", type=int, default=256,
                   help="size bound for the exhaustive oracle")
    p.add_argument("--force", action="store_true",
                   help="skip validation and attempt the build anyway")
    format_option(p)
    output_option(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("lift", help="lift an isomorphism pair to the "
                                    "coefficient groups")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("iso", help="iso-input document with phi0, phi1, pairing")
    output_option(p)
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("gen", help="generate a deterministic fixture")
    p.add_argument("gen_kind", choices=("aligned", "twisted", "dp",
                                        "defect"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coeffs", default=None,
                   help="comma-separated coefficient menu for the "
                        "random kinds")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--kind", choices=DEFECT_KINDS, default=None,
                   help="defect to plant")
    p.add_argument("--base", default=None,
                   help="instance file to mutate (default: aligned "
                        "instance from --seed)")
    output_option(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("gamma-check",
                       help="check Gamma-complex exactness for a "
                            "comaximal family")
    p.add_argument("path")
    p.add_argument("--ideal", required=True)
    p.add_argument("--parts", required=True,
                   help="comma-separated maximal subideal ids")
    p.set_defaults(func=cmd_gamma_check)

    p = sub.add_parser("coherence-check",
                       help="check the multi-coefficient kappa relations")
    p.add_argument("path")
    format_option(p)
    p.set_defaults(func=cmd_coherence_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (SchemaError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except IdealSplitError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_CHECK


def entry():
    """Console-script hook."""
    sys.exit(main())


if __name__ == "__main__":
    entry()
