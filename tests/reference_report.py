"""The dict-tree JSON renderer that wsh.fileio.render_json_report replaced.

It builds the report as nested dicts and lists and hands the tree to
json.dumps(indent=2). The library now writes the same layout directly,
because CPython's C encoder runs only when indent is None; this copy stays
as the reference that the byte-identity tests compare against.
"""

import json


def render_json_report_reference(modules, field, with_generators: bool = False) -> str:
    dims = []
    for mod in modules:
        entry = {
            "n": mod.n,
            "free_rank": mod.free_rank,
            "torsion": list(mod.torsion),
            "pairs": [
                {"kappa": list(p.kappa), "mu": list(p.mu), "m": p.m}
                for p in mod.pairing.pairs
            ],
        }
        if with_generators and mod.generators is not None:
            entry["generators"] = [
                {
                    "terms": [
                        {
                            "simplex": list(s),
                            "poly": [[e, field.to_str(c)] for e, c in chain.terms[s]],
                        }
                        for s in sorted(chain.terms)
                    ]
                }
                for chain in mod.generators
            ]
        dims.append(entry)
    return json.dumps({"field": field.name, "dimensions": dims}, indent=2) + "\n"
