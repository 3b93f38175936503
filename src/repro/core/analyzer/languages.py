"""Language-aware leakage heuristics for chaincode (Go, JS/TS, Java).

Implements the per-function analysis behind the paper's §V-C "Generality
of PDC leakage issues": a chaincode function leaks private data when it

* **read-leak** — calls ``GetPrivateData`` and *returns* the fetched value
  (directly or through derived variables), sending it into the plaintext
  ``payload`` field of the proposal response (Listing 1); or
* **write-leak** — calls ``PutPrivateData`` and returns the written value
  (e.g. ``return args[1], nil`` in Listing 2).

Two further detectors go beyond the paper's payload analysis:

* **transient-bypass** — the value passed to ``PutPrivateData`` comes from
  the plaintext ``args[...]`` (Listing 2's secondary flaw): it is recorded
  in every committed transaction's argument list, which even New
  Feature 2 cannot repair.  The transient map is the private channel;
* **event-leak** — a ``GetPrivateData`` result reaches ``SetEvent``: events
  are committed in plaintext and broadcast to every subscriber.

All four are one taint pass that differs only in its seeds and sinks.
Function bodies are extracted once per file by brace matching; taint
propagates from the seeds through straight-line assignments, and a
function is flagged when a sink expression mentions a tainted access.
Calls to ``GetPrivateDataHash`` never taint — returning a hash is the
safe pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from repro.core.analyzer.source import ProjectFile

_GO_FUNC_RE = re.compile(r"\bfunc\s+(?:\([^)]*\)\s*)?(?P<name>[A-Za-z_]\w*)\s*\([^)]*\)[^{]*\{")
_JS_FUNC_RE = re.compile(
    r"(?:\basync\s+)?(?:\bfunction\s+)?(?P<name>[A-Za-z_$][\w$]*)\s*\([^)]*\)\s*\{"
)
_JAVA_FUNC_RE = re.compile(
    r"(?:public|private|protected)\s+(?:static\s+)?[\w<>\[\],\s]+?\s(?P<name>[A-Za-z_]\w*)\s*\([^)]*\)\s*(?:throws[\w\s,]*)?\{"
)

_JS_KEYWORDS = {"if", "for", "while", "switch", "catch", "function", "return"}

# Access expressions: identifiers with optional member / index suffixes,
# e.g. ``asset``, ``args[1]``, ``resp.payload``.
_ACCESS_RE = re.compile(r"[A-Za-z_$][\w$]*(?:\s*\[\s*[^\]]+\s*\]|\.[A-Za-z_$][\w$]*)*")

_GET_PRIVATE_RE = re.compile(r"\bGetPrivateData\s*\(", re.IGNORECASE)
_GET_PRIVATE_HASH_RE = re.compile(r"\bGetPrivateDataHash\s*\(", re.IGNORECASE)
_PUT_PRIVATE_RE = re.compile(r"\bPutPrivateData\s*\(", re.IGNORECASE)
_SET_EVENT_RE = re.compile(r"\bSetEvent\s*\(", re.IGNORECASE)
_SHIM_SUCCESS_RE = re.compile(r"shim\.Success\s*\(")


@dataclass(frozen=True)
class FunctionInfo:
    """One extracted chaincode function."""

    name: str
    body: str
    language: str


def _language_of(file: ProjectFile) -> str | None:
    return {".go": "go", ".js": "js", ".ts": "js", ".java": "java"}.get(file.extension)


def extract_functions(file: ProjectFile) -> list[FunctionInfo]:
    """Extract named function bodies via header regex + brace matching."""
    language = _language_of(file)
    if language is None:
        return []
    pattern = {"go": _GO_FUNC_RE, "js": _JS_FUNC_RE, "java": _JAVA_FUNC_RE}[language]
    functions = []
    for match in pattern.finditer(file.content):
        name = match.group("name")
        if language == "js" and name in _JS_KEYWORDS:
            continue
        body = _matched_braces(file.content, match.end() - 1)
        if body is not None:
            functions.append(FunctionInfo(name=name, body=body, language=language))
    return functions


def _matched_braces(text: str, open_index: int) -> str | None:
    """The text between the brace at ``open_index`` and its partner."""
    depth = 0
    in_string: str | None = None
    index = open_index
    while index < len(text):
        ch = text[index]
        if in_string:
            if ch == "\\":
                index += 2
                continue
            if ch == in_string:
                in_string = None
        elif ch in "'\"`":
            in_string = ch
        elif ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                return text[open_index + 1 : index]
        index += 1
    return None


def _normalize(expr: str) -> str:
    return re.sub(r"\s+", "", expr)


_STRING_LITERAL_RE = re.compile(r"'[^']*'|\"[^\"]*\"|`[^`]*`")


def _accesses_in(expr: str) -> set[str]:
    # Words inside string literals are not variable accesses — an error
    # message mentioning "asset" must not count as a use of `asset`.
    stripped = _STRING_LITERAL_RE.sub("''", expr)
    return {_normalize(m.group(0)) for m in _ACCESS_RE.finditer(stripped)}


def _root_of(access: str) -> str:
    return re.split(r"[.\[]", access, 1)[0]


def _call_arguments(body: str, call_match: re.Match) -> list[str]:
    """Split the argument list of a call, respecting nesting."""
    depth = 1
    start = call_match.end()
    args, current = [], []
    index = start
    while index < len(body) and depth > 0:
        ch = body[index]
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
            if depth == 0:
                break
        if ch == "," and depth == 1:
            args.append("".join(current))
            current = []
        else:
            current.append(ch)
        index += 1
    if current:
        args.append("".join(current))
    return [a.strip() for a in args if a.strip()]


def _assignment_targets(line: str) -> tuple[list[str], str] | None:
    """Parse ``lhs = rhs`` / ``lhs := rhs`` / ``const lhs = rhs`` lines.

    Typed declarations (``byte[] data = ...``, ``final String s = ...``)
    contribute only the declared *name* (the last identifier of each
    comma-separated part); Go's ``_`` and error results never taint.
    """
    stripped = line.strip()
    stripped = re.sub(r"^(?:const|let|var|final)\s+", "", stripped)
    match = re.match(r"^([\w$.,\s\[\]<>]+?)\s*:?=\s*(?![=])(.+)$", stripped)
    if match is None:
        return None
    lhs, rhs = match.group(1), match.group(2)
    targets = []
    for part in lhs.split(","):
        tokens = [m.group(0) for m in _ACCESS_RE.finditer(part)]
        if not tokens:
            continue
        name = _normalize(tokens[-1])
        if name in ("_", "err", "error"):
            continue
        targets.append(name)
    return (targets, rhs) if targets else None


def _is_tainted(access: str, tainted: set[str]) -> bool:
    """An access is tainted exactly, or through its root variable.

    ``args[1]`` in the taint set does NOT taint ``args[0]`` — only the
    precise access or derivations of a tainted *bare* variable count,
    which keeps error paths like ``return "", fmt.Errorf(..., args[0])``
    from false-positiving write-leak detection.
    """
    return access in tainted or _root_of(access) in tainted


def _mentions_tainted(expr: str, tainted: set[str]) -> bool:
    return any(_is_tainted(access, tainted) for access in _accesses_in(expr))


def _propagate(body: str, seeds: set[str]) -> set[str]:
    """The seeds plus every assignment target derived from them.

    Two passes handle simple forward chains (a = get(); b = parse(a);
    return b) without needing a full dataflow fixpoint.
    """
    tainted = set(seeds)
    for _ in range(2):
        for line in body.splitlines():
            parsed = _assignment_targets(line)
            if parsed is not None and _mentions_tainted(parsed[1], tainted):
                tainted.update(parsed[0])
    return tainted


# -- seeds ---------------------------------------------------------------------
def _private_reads(function: FunctionInfo) -> set[str]:
    """Variables assigned from ``GetPrivateData``."""
    seeds: set[str] = set()
    for line in function.body.splitlines():
        if _GET_PRIVATE_RE.search(line):
            parsed = _assignment_targets(line)
            if parsed is not None:
                seeds.update(parsed[0])
    return seeds


def _written_values(function: FunctionInfo) -> set[str]:
    """The accesses in every value passed to ``PutPrivateData``."""
    seeds = {access for value in _put_values(function) for access in _accesses_in(value)}
    # Conversion wrappers are not data sources.
    seeds -= {"byte", "Buffer", "Buffer.from", "bytes", "String", "JSON.stringify"}
    # A method access like ``value.getBytes`` taints the receiver
    # ``value`` as well; a *subscript* like ``args[1]`` stays exact so
    # ``args[0]`` (the key) is never considered leaked.
    for seed in list(seeds):
        if "." in seed and "[" not in seed:
            seeds.add(_root_of(seed))
    return seeds


def _plaintext_args(function: FunctionInfo) -> set[str]:
    """Every ``args[...]`` access: the proposal's plaintext arguments."""
    return {
        access
        for line in function.body.splitlines()
        for access in _accesses_in(line)
        if access.startswith("args[")
    }


# -- sinks ---------------------------------------------------------------------
def _put_values(function: FunctionInfo) -> list[str]:
    """The value argument of every ``PutPrivateData`` call."""
    values = []
    for match in _PUT_PRIVATE_RE.finditer(function.body):
        arguments = _call_arguments(function.body, match)
        if len(arguments) >= 3:
            values.append(arguments[2])
        elif len(arguments) == 2:  # JS contract API: putPrivateData(key, value)
            values.append(arguments[1])
    return values


def _responses(function: FunctionInfo) -> list[str]:
    """``return`` expressions and Go ``shim.Success(...)`` payloads."""
    responses = []
    for line in function.body.splitlines():
        return_match = re.match(r"^return\b(.*)$", line.strip())
        if return_match is None:
            continue
        expr = return_match.group(1).strip().rstrip(";")
        if function.language == "go":
            # ``return "", err`` / ``return nil, err`` are error paths.
            expr = ",".join(
                part for part in expr.split(",") if part.strip() not in ("nil", "err", "''", '""')
            )
        responses.append(expr)
    # Go chaincode often responds via shim.Success(payload) instead of a
    # plain return value.
    for match in _SHIM_SUCCESS_RE.finditer(function.body):
        responses.extend(_call_arguments(function.body, match))
    return responses


def _events(function: FunctionInfo) -> list[str]:
    """Every argument of every ``SetEvent`` call."""
    body = function.body
    return [arg for match in _SET_EVENT_RE.finditer(body) for arg in _call_arguments(body, match)]


#: Detector -> (seeds, sinks).  ``ProjectAnalysis`` keeps each detector's
#: findings in its ``<detector>_functions`` field.
DETECTORS = {
    "read_leak": (_private_reads, _responses),
    "write_leak": (_written_values, _responses),
    "transient_bypass": (_plaintext_args, _put_values),
    "event_leak": (_private_reads, _events),
}


def scan_file(file: ProjectFile) -> dict[str, list[str]]:
    """Detector -> the functions of ``file`` it flags, in source order."""
    found: dict[str, list[str]] = {detector: [] for detector in DETECTORS}
    for function in extract_functions(file):
        function = replace(function, body=_GET_PRIVATE_HASH_RE.sub("ignored(", function.body))
        for detector, (seeds_of, sinks_of) in DETECTORS.items():
            seeds = seeds_of(function)
            if not seeds:
                continue
            tainted = _propagate(function.body, seeds)
            if any(_mentions_tainted(sink, tainted) for sink in sinks_of(function)):
                found[detector].append(function.name)
    return found
