#!/usr/bin/env python3
"""Print the full truth tables of all sixteen BNM schemes.

Usage: python scripts/print_schemes.py [id ...]
With no arguments, prints every scheme; ids may be decimal or 0b-binary.
"""

import sys

from trivalent import TruthValue, enumerate_bnm_schemes, scheme_from_id, scheme_id
from trivalent.scheme import _PRESET_CODES

VALUES = (TruthValue.T, TruthValue.I, TruthValue.F)


def table_lines(scheme):
    yield f"scheme {scheme_id(scheme):#06b}" + (f"  ({scheme.name})" if scheme.name else "")
    yield "  neg: " + "  ".join(f"{a.symbol}->{scheme.neg(a).symbol}" for a in VALUES)
    for label, op in (("and", scheme.conj), ("or ", scheme.disj)):
        header = "       " + " ".join(b.symbol for b in VALUES)
        yield f"  {label}:{header[6:]}"
        for a in VALUES:
            row = " ".join(op(a, b).symbol for b in VALUES)
            yield f"       {a.symbol}| {row}"


def main() -> int:
    if len(sys.argv) > 1:
        schemes = [scheme_from_id(int(arg, 0)) for arg in sys.argv[1:]]
    else:
        schemes = enumerate_bnm_schemes()
    named = {code: name for name, code in _PRESET_CODES.items()}
    for scheme in schemes:
        code = scheme_id(scheme)
        if code in named:
            scheme = scheme.renamed(named[code])
        for line in table_lines(scheme):
            print(line)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
