"""Answer oracle: every query's answer is checked, never retried or dropped.

Two sources of truth:

* `oracle.json`, recorded with `python3 perfbench/run.py --record`, holds
  for every template the exit code and the whole stdout report of the CLI
  (solution lists, class counts, check verdicts and diagnostics, canon keys),
  written in template names.  An answer is renamed back to template names
  and compared with it.
* `Query.expect`, the answers that follow from a query's construction
  (ring solution counts, chain verdicts, tuple sizes, and the full `bundle`
  and `obstruct` reports from closed forms).
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path
from typing import Dict, List, Optional

from generate import Query

ORACLE_FILE = Path(__file__).with_name("oracle.json")
_TOKEN = re.compile(r"[A-Za-z0-9_]+")


def load() -> Dict[str, dict]:
    if not ORACLE_FILE.is_file():
        return {}
    return json.loads(ORACLE_FILE.read_text(encoding="utf-8"))


def save(answers: Dict[str, dict]) -> None:
    """One template per line."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(answers.items())]
    ORACLE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")


def _rename(obj, names: Dict[str, str]):
    if isinstance(obj, str):
        return _TOKEN.sub(lambda m: names.get(m.group(0), m.group(0)), obj)
    if isinstance(obj, list):
        return [_rename(v, names) for v in obj]
    if isinstance(obj, dict):
        return {_rename(k, names): _rename(v, names) for k, v in obj.items()}
    return obj


def normalize(query: Query, code: int, report: Optional[dict]) -> dict:
    """The answer written in template names.  Solution lists are sorted,
    because the CLI orders them by node name."""
    report = _rename(report, query.names)
    search = (report or {}).get("search")
    if search:
        search["solutions"].sort(key=lambda s: json.dumps(s, sort_keys=True))
    return {"exit": code, "report": report}


def _expected_exit(query: Query) -> Optional[int]:
    if "exit" in query.expect:
        return query.expect["exit"]
    if query.argv[0] == "bundle":
        return 0
    if query.argv[0] == "obstruct":
        return 0 if query.expect["json"]["verdict"] == "pass" else 1
    return None


def check(query: Query, code: int, stdout: str, oracle: Dict[str, dict]) -> List[str]:
    """Every way the answer differs from the expected one; empty if correct."""
    try:
        report = json.loads(stdout) if stdout.strip() else None
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {stdout[:80]!r}"]
    problems = []
    want_exit = _expected_exit(query)
    if want_exit is not None and code != want_exit:
        problems.append(f"exit {code}, expected {want_exit}")
    if query.template is not None:
        recorded = oracle.get(query.template)
        if recorded is None:
            problems.append(f"no recorded answer for {query.template}")
        elif normalize(query, code, report) != recorded:
            problems.append(f"answer differs from the one recorded for {query.template}")
    report = report or {}
    if "json" in query.expect:
        got = copy.deepcopy(report)
        for part in got.values():
            if isinstance(part, dict):
                part.pop("hurewicz_flag", None)
        if got != query.expect["json"]:
            problems.append(f"{query.argv[0]} report differs from its closed form")
    search = report.get("search") or {}
    checks = report.get("checks") or {}
    for key, want in query.expect.items():
        if key in ("raw_solutions", "classes") and search.get(key) != want:
            problems.append(f"{key} {search.get(key)}, expected {want}")
        elif key == "relators_passed" and checks.get("relators", {}).get("passed") != want:
            problems.append("relators verdict differs from the construction")
        elif key == "size" and report.get("size") != want:
            problems.append(f"canon size {report.get('size')}, expected {want}")
    return problems
