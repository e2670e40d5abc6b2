"""Human-readable and JSON rendering of speccheck results."""

from __future__ import annotations

import json
from typing import List

from checks import HOT_ENTRIES, Results


def render_text(res: Results, verbose: bool = False) -> str:
    lines: List[str] = []
    lines.append("== speccheck: per-CleanupMode write-set vs undo-set ==")
    for mr in res.mode_reports:
        status = (
            "EXEMPT (undo intentionally incomplete — the attack "
            "surface itself)"
            if mr.exempt
            else ("FAIL" if mr.missing else "ok")
        )
        lines.append(
            f"  {mr.mode:<16} write={len(mr.write_fields):>2} "
            f"undo={len(mr.undo_fields):>2} "
            f"missing={len(mr.missing)} "
            f"baselined={len(mr.baselined)}  [{status}]"
        )
        if verbose or mr.missing:
            for fkey in sorted(mr.write_fields):
                covered = fkey in mr.undo_fields
                mark = (
                    "covered"
                    if covered
                    else (
                        "BASELINED"
                        if fkey in mr.baselined
                        else ("exempt" if mr.exempt else "MISSING")
                    )
                )
                lines.append(f"      {fkey:<34} {mark}")
    if res.hot_functions and verbose:
        lines.append(
            f"== hot path ({len(res.hot_functions)} functions "
            f"reachable from {'/'.join(HOT_ENTRIES)}) =="
        )
        for fn in res.hot_functions:
            lines.append(f"      {fn}")
    if res.warnings:
        lines.append("== warnings ==")
        for w in res.warnings:
            lines.append(f"  warning: {w}")
    if res.findings:
        lines.append(f"== findings ({len(res.findings)}) ==")
        for f in res.findings:
            lines.append(f"  {f.where}: [{f.check}] {f.message}")
    else:
        lines.append("speccheck: no findings")
    return "\n".join(lines)


def render_json(res: Results) -> str:
    doc = {
        "schema": "unxpec-speccheck-v1",
        "modes": [
            {
                "mode": mr.mode,
                "exempt": mr.exempt,
                "write_set": {
                    k: [
                        {"function": fn, "line": line}
                        for fn, line in v
                    ]
                    for k, v in sorted(mr.write_fields.items())
                },
                "undo_set": sorted(mr.undo_fields),
                "missing": mr.missing,
                "baselined": mr.baselined,
                "spec_transitions": mr.spec_fns,
                "rollback_functions": mr.rollback_fns,
            }
            for mr in res.mode_reports
        ],
        "hot_functions": res.hot_functions,
        "warnings": res.warnings,
        "findings": [
            {
                "check": f.check,
                "where": f.where,
                "message": f.message,
            }
            for f in res.findings
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"
