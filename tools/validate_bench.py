#!/usr/bin/env python3
"""Validate a bench --json snapshot.

    validate_bench.py SNAPSHOT.json

The snapshot must have exactly the schema bench writes (version 2): the
metadata fields schema_version, git_rev and full; an "experiments" array
of {id, description, solves}; and a "scenario_matrix" array of
{scenario, solver, n, solves, probe_digest}. It records no wall clock:
bench/ reproduces the paper's tables, and perfbench/ measures timings.

Exit status is 0 when the snapshot is valid, 1 otherwise. Uses only the
standard library.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 2

METADATA = {"schema_version": int, "git_rev": str, "full": bool}

SECTIONS = {
    "experiments": {"id": str, "description": str, "solves": int},
    "scenario_matrix": {
        "scenario": str,
        "solver": str,
        "n": int,
        "solves": int,
        "probe_digest": str,
    },
}


def typecheck(value, expected):
    # bool is an int subclass in Python; an int field must not accept one.
    if expected is int:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, expected)


def check_fields(obj, fields, where, errors):
    """Every field present with its type, and no other field."""
    for field, expected in fields.items():
        if field not in obj:
            errors.append(f"{where}: missing '{field}'")
        elif not typecheck(obj[field], expected):
            errors.append(f"{where}: '{field}' has type {type(obj[field]).__name__}, "
                          f"want {expected.__name__}")
    for field in sorted(set(obj) - set(fields)):
        errors.append(f"{where}: unexpected field '{field}'")


def validate(doc, path):
    if not isinstance(doc, dict):
        return [f"{path}: snapshot is {type(doc).__name__}, want a JSON object"]
    errors = []
    check_fields(doc, {**METADATA, **{section: list for section in SECTIONS}}, path, errors)
    version = doc.get("schema_version")
    if typecheck(version, int) and version != SCHEMA_VERSION:
        errors.append(f"{path}: schema_version {version} unsupported "
                      f"(validator knows {SCHEMA_VERSION})")
    for section, fields in SECTIONS.items():
        rows = doc.get(section)
        if not isinstance(rows, list):
            continue
        for i, row in enumerate(rows):
            where = f"{path}: {section}[{i}]"
            if isinstance(row, dict):
                check_fields(row, fields, where, errors)
            else:
                errors.append(f"{where}: row is {type(row).__name__}, want an object")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("snapshot", help="bench --json snapshot to validate")
    args = ap.parse_args()

    try:
        with open(args.snapshot) as fh:
            errors = validate(json.load(fh), args.snapshot)
    except (OSError, json.JSONDecodeError) as exc:
        errors = [f"{args.snapshot}: cannot load: {exc}"]

    if errors:
        for err in errors:
            print(f"ERROR: {err}", file=sys.stderr)
        print(f"validate_bench: {len(errors)} error(s)", file=sys.stderr)
        return 1
    print("validate_bench: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
