"""Reading and writing fuzzy systems in the `.fis` text format.

The dialect is the classic INI-like layout used by MATLAB's Fuzzy Logic
Toolbox: a [System] header, one [InputN]/[OutputN] section per variable,
and a [Rules] section with one rule per line in matrix encoding. Parsing
never raises on malformed input; problems are collected as line-numbered
diagnostics so a whole file can be linted in one pass.

Canonical serialization rules (see docs/fis-grammar.md):
  * sections in fixed order, keys in fixed order, LF line endings
  * one blank line between sections, trailing newline at end of file
  * numbers in shortest form that round-trips an IEEE-754 double,
    integral values without a decimal point
Because the number format is lossless, parse(serialize(s)) == s for any
valid system at default resolution.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .fuzzy import (
    AGGREGATION_METHODS,
    AND_METHODS,
    DEFAULT_RESOLUTION,
    IMPLICATION_METHODS,
    OR_METHODS,
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    Rule,
)

ERROR = "error"
WARNING = "warning"

# .fis type name <-> engine kind
_MF_TYPE_TO_KIND = {"gaussmf": "gaussian", "trimf": "triangular", "trapmf": "trapezoidal"}
_KIND_TO_MF_TYPE = {v: k for k, v in _MF_TYPE_TO_KIND.items()}
_MF_PARAM_COUNT = {"gaussian": 2, "triangular": 3, "trapezoidal": 4}


@dataclass(frozen=True)
class Diagnostic:
    """One problem found while parsing or validating.

    ``line`` is 1-based and refers to the parsed text; it is None for
    diagnostics produced from an in-memory system.
    """

    severity: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        if self.line is None:
            return f"{self.severity}: {self.message}"
        return f"line {self.line}: {self.severity}: {self.message}"


@dataclass(frozen=True)
class Section:
    """A raw [Header] block: ordered key=value pairs with line numbers."""

    header: str
    line: int
    entries: tuple[tuple[str, str, int], ...]


@dataclass(frozen=True)
class FisDocument:
    """The lexical structure of a .fis file, before interpretation."""

    sections: tuple[Section, ...]


@dataclass
class ParseResult:
    system: FuzzySystem | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity == ERROR for d in self.diagnostics)


def format_number(x: float) -> str:
    """Canonical text form of a double: shortest exact representation."""
    x = float(x)
    if x == 0.0:
        return "0"
    if math.isfinite(x) and x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _lex(text: str) -> tuple[FisDocument, list[Diagnostic]]:
    sections: list[Section] = []
    diags: list[Diagnostic] = []
    header: str | None = None
    header_line = 0
    entries: list[tuple[str, str, int]] = []

    def close():
        if header is not None:
            sections.append(Section(header, header_line, tuple(entries)))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "%#":
            continue
        if line.startswith("[") and line.endswith("]"):
            close()
            header = line[1:-1].strip()
            header_line = lineno
            entries = []
            if not header:
                diags.append(Diagnostic(ERROR, "empty section header", lineno))
            continue
        if header is None:
            diags.append(Diagnostic(ERROR, f"content before first section: {line!r}", lineno))
            continue
        if header == "Rules":
            # rule lines are not key=value; keep them verbatim
            entries.append(("", line, lineno))
            continue
        if "=" not in line:
            diags.append(Diagnostic(ERROR, f"expected key=value, got {line!r}", lineno))
            continue
        key, value = line.split("=", 1)
        entries.append((key.strip(), value.strip(), lineno))
    close()
    return FisDocument(tuple(sections)), diags


def _unquote(value: str) -> str:
    if len(value) >= 2 and value[0] == "'" and value[-1] == "'":
        return value[1:-1]
    return value


_MF_RE = re.compile(r"^'([^']*)'\s*:\s*'([^']*)'\s*,\s*\[([^\]]*)\]$")
_RULE_RE = re.compile(r"^(.*?),(.*?)\(([^)]*)\)\s*:\s*(\S+)$")


def _parse_numbers(blob: str) -> list[float]:
    toks = blob.replace(",", " ").split()
    return [float(t) for t in toks]


class _Interp:
    """Turns a FisDocument into a FuzzySystem, accumulating diagnostics."""

    def __init__(self, doc: FisDocument):
        self.doc = doc
        self.diags: list[Diagnostic] = []
        # semantic-check line attribution
        self.mf_lines: dict[tuple[str, int, int], int] = {}
        self.range_lines: dict[tuple[str, int], int] = {}
        self.rule_lines: list[int] = []

    def error(self, msg: str, line: int | None = None):
        self.diags.append(Diagnostic(ERROR, msg, line))

    def warn(self, msg: str, line: int | None = None):
        self.diags.append(Diagnostic(WARNING, msg, line))

    def run(self) -> FuzzySystem | None:
        by_header: dict[str, Section] = {}
        for sec in self.doc.sections:
            if sec.header in by_header:
                self.error(f"duplicate section [{sec.header}]", sec.line)
            else:
                by_header[sec.header] = sec

        system_sec = by_header.get("System")
        if system_sec is None:
            self.error("missing [System] section", 1)
            return None
        sysmap = {k: (v, ln) for k, v, ln in system_sec.entries}

        def sys_str(key: str, default: str | None = None) -> str | None:
            if key in sysmap:
                return _unquote(sysmap[key][0])
            return default

        def sys_int(key: str) -> int | None:
            if key not in sysmap:
                self.error(f"[System] is missing required key {key}", system_sec.line)
                return None
            value, ln = sysmap[key]
            try:
                return int(value)
            except ValueError:
                self.error(f"{key} must be an integer, got {value!r}", ln)
                return None

        name = sys_str("Name")
        if name is None:
            self.warn("[System] has no Name, using 'untitled'", system_sec.line)
            name = "untitled"
        fis_type = sys_str("Type")
        if fis_type is None:
            self.error("[System] is missing required key Type", system_sec.line)
        elif fis_type != "mamdani":
            self.error(
                f"unsupported system type {fis_type!r} (only 'mamdani' is supported)",
                sysmap["Type"][1],
            )
        n_in = sys_int("NumInputs")
        n_out = sys_int("NumOutputs")
        n_rules = sys_int("NumRules")

        def method(key: str, default: str) -> str:
            if key not in sysmap:
                self.warn(f"[System] has no {key}, assuming '{default}'", system_sec.line)
                return default
            return _unquote(sysmap[key][0])

        and_method = method("AndMethod", "min")
        or_method = method("OrMethod", "max")
        implication = method("ImpMethod", "min")
        aggregation = method("AggMethod", "max")
        defuzzification = method("DefuzzMethod", "centroid")

        # dialect extension: the designer tool never stores a sampling
        # resolution, so absence means the engine default
        resolution = DEFAULT_RESOLUTION
        if "Resolution" in sysmap:
            value, ln = sysmap["Resolution"]
            try:
                resolution = int(value)
            except ValueError:
                self.error(f"Resolution must be an integer, got {value!r}", ln)

        known = {
            "Name", "Type", "Version", "NumInputs", "NumOutputs", "NumRules",
            "AndMethod", "OrMethod", "ImpMethod", "AggMethod", "DefuzzMethod",
            "Resolution",
        }
        for key, _value, ln in system_sec.entries:
            if key not in known:
                self.warn(f"unknown [System] key {key!r} ignored", ln)

        for sec in self.doc.sections:
            if sec.header in ("System", "Rules"):
                continue
            m = re.fullmatch(r"(Input|Output)(\d+)", sec.header)
            if not m:
                self.warn(f"unknown section [{sec.header}] ignored", sec.line)
                continue
            io, idx = m.group(1), int(m.group(2))
            bound = n_in if io == "Input" else n_out
            if bound is not None and not (1 <= idx <= bound):
                self.error(
                    f"[{sec.header}] is out of range (Num{io}s={bound})", sec.line
                )

        if n_in is None or n_out is None or n_rules is None:
            return None

        inputs = [self._variable(by_header, "Input", i) for i in range(1, n_in + 1)]
        outputs = [self._variable(by_header, "Output", i) for i in range(1, n_out + 1)]

        rules_sec = by_header.get("Rules")
        rules: list[Rule] = []
        if rules_sec is None:
            if n_rules != 0:
                self.error("missing [Rules] section", system_sec.line)
        else:
            for _key, line, ln in rules_sec.entries:
                rule = self._rule(line, ln, n_in, n_out)
                if rule is not None:
                    rules.append(rule)
                    self.rule_lines.append(ln)
            if len(rules_sec.entries) != n_rules:
                self.error(
                    f"NumRules={n_rules} but [Rules] has {len(rules_sec.entries)} lines",
                    rules_sec.line,
                )

        if any(d.severity == ERROR for d in self.diags):
            return None
        if any(v is None for v in inputs) or any(v is None for v in outputs):
            return None

        system = FuzzySystem(
            name=name,
            inputs=tuple(inputs),
            outputs=tuple(outputs),
            rules=tuple(rules),
            and_method=and_method,
            or_method=or_method,
            implication=implication,
            aggregation=aggregation,
            defuzzification=defuzzification,
            resolution=resolution,
        )
        method_lines = {
            field: sysmap[key][1]
            for field, key in (
                ("and_method", "AndMethod"),
                ("or_method", "OrMethod"),
                ("implication", "ImpMethod"),
                ("aggregation", "AggMethod"),
                ("defuzzification", "DefuzzMethod"),
                ("resolution", "Resolution"),
            )
            if key in sysmap
        }
        self.diags.extend(
            _semantic_diagnostics(
                system, self.mf_lines, self.range_lines, self.rule_lines, method_lines
            )
        )
        if any(d.severity == ERROR for d in self.diags):
            return None
        return system

    def _variable(self, by_header, io: str, idx: int) -> LinguisticVariable | None:
        sec = by_header.get(f"{io}{idx}")
        if sec is None:
            self.error(f"missing [{io}{idx}] section", 1)
            return None
        entries = {k: (v, ln) for k, v, ln in sec.entries}
        name = _unquote(entries["Name"][0]) if "Name" in entries else ""
        if "Name" not in entries:
            self.error(f"[{io}{idx}] is missing Name", sec.line)
        lo = hi = 0.0
        if "Range" not in entries:
            self.error(f"[{io}{idx}] is missing Range", sec.line)
        else:
            value, ln = entries["Range"]
            self.range_lines[(io, idx)] = ln
            try:
                nums = _parse_numbers(value.strip().strip("[]"))
                if len(nums) != 2:
                    raise ValueError
                lo, hi = nums
            except ValueError:
                self.error(f"Range must be [lo hi], got {value!r}", ln)
        n_mfs = None
        if "NumMFs" not in entries:
            self.error(f"[{io}{idx}] is missing NumMFs", sec.line)
        else:
            value, ln = entries["NumMFs"]
            try:
                n_mfs = int(value)
            except ValueError:
                self.error(f"NumMFs must be an integer, got {value!r}", ln)
        if n_mfs is None:
            return None

        terms: list[tuple[str, MembershipFunction]] = []
        bad = False
        for k in range(1, n_mfs + 1):
            key = f"MF{k}"
            if key not in entries:
                self.error(f"[{io}{idx}] is missing {key}", sec.line)
                bad = True
                continue
            value, ln = entries[key]
            self.mf_lines[(io, idx, k)] = ln
            m = _MF_RE.match(value)
            if not m:
                self.error(f"malformed membership function: {value!r}", ln)
                bad = True
                continue
            term_name, mf_type, blob = m.group(1), m.group(2), m.group(3)
            kind = _MF_TYPE_TO_KIND.get(mf_type)
            if kind is None:
                self.error(f"unknown membership function type {mf_type!r}", ln)
                bad = True
                continue
            try:
                params = _parse_numbers(blob)
            except ValueError:
                self.error(f"non-numeric membership parameters: [{blob}]", ln)
                bad = True
                continue
            want = _MF_PARAM_COUNT[kind]
            if len(params) != want:
                self.error(
                    f"{mf_type} takes {want} parameters, got {len(params)}", ln
                )
                bad = True
                continue
            terms.append((term_name, MembershipFunction(kind, tuple(params))))

        for key, _value, ln in sec.entries:
            if key not in ("Name", "Range", "NumMFs") and not re.fullmatch(r"MF\d+", key):
                self.warn(f"unknown [{io}{idx}] key {key!r} ignored", ln)

        if bad:
            return None
        return LinguisticVariable(name=name, lo=lo, hi=hi, terms=tuple(terms))

    def _rule(self, line: str, ln: int, n_in: int, n_out: int) -> Rule | None:
        m = _RULE_RE.match(line)
        if not m:
            self.error(f"malformed rule: {line!r}", ln)
            return None
        ante_blob, cons_blob, weight_blob, conn_blob = m.groups()

        def ints(blob: str, what: str) -> list[int] | None:
            out = []
            for tok in blob.split():
                try:
                    out.append(int(tok))
                except ValueError:
                    self.error(f"non-integer {what} term index {tok!r}", ln)
                    return None
            return out

        ante = ints(ante_blob, "antecedent")
        cons = ints(cons_blob, "consequent")
        if ante is None or cons is None:
            return None
        if len(ante) != n_in:
            self.error(f"rule has {len(ante)} antecedent entries, expected {n_in}", ln)
            return None
        if len(cons) != n_out:
            self.error(f"rule has {len(cons)} consequent entries, expected {n_out}", ln)
            return None
        try:
            weight = float(weight_blob)
        except ValueError:
            self.error(f"non-numeric rule weight {weight_blob!r}", ln)
            return None
        if conn_blob == "1":
            connective = "and"
        elif conn_blob == "2":
            connective = "or"
        else:
            self.error(f"rule connective must be 1 (AND) or 2 (OR), got {conn_blob!r}", ln)
            return None
        return Rule(tuple(ante), tuple(cons), weight, connective)


def _semantic_diagnostics(
    system: FuzzySystem,
    mf_lines: dict[tuple[str, int, int], int] | None = None,
    range_lines: dict[tuple[str, int], int] | None = None,
    rule_lines: list[int] | None = None,
    method_lines: dict[str, int] | None = None,
) -> list[Diagnostic]:
    """Invariant checks shared by the parser and validate_fis."""
    mf_lines = mf_lines or {}
    range_lines = range_lines or {}
    rule_lines = rule_lines or []
    method_lines = method_lines or {}
    diags: list[Diagnostic] = []

    def err(msg: str, line: int | None = None):
        diags.append(Diagnostic(ERROR, msg, line))

    def warn(msg: str, line: int | None = None):
        diags.append(Diagnostic(WARNING, msg, line))

    def check_name(what: str, name: str):
        if "'" in name or "\n" in name:
            err(f"{what} name {name!r} contains a quote or newline")

    check_name("system", system.name)
    if not system.inputs:
        err("system declares no input variables")
    if not system.outputs:
        err("system declares no output variables")
    if system.and_method not in AND_METHODS:
        err(f"unknown AND method {system.and_method!r}", method_lines.get("and_method"))
    if system.or_method not in OR_METHODS:
        err(f"unknown OR method {system.or_method!r}", method_lines.get("or_method"))
    if system.implication not in IMPLICATION_METHODS:
        err(
            f"unknown implication method {system.implication!r}",
            method_lines.get("implication"),
        )
    if system.aggregation not in AGGREGATION_METHODS:
        err(
            f"unknown aggregation method {system.aggregation!r}",
            method_lines.get("aggregation"),
        )
    if system.defuzzification != "centroid":
        err(
            f"defuzzification method {system.defuzzification!r} is not supported "
            "(only 'centroid')",
            method_lines.get("defuzzification"),
        )
    if system.resolution < 2:
        err(
            f"resolution must be at least 2, got {system.resolution}",
            method_lines.get("resolution"),
        )

    for io, variables in (("Input", system.inputs), ("Output", system.outputs)):
        for idx, var in enumerate(variables, start=1):
            where = f"{io.lower()} {idx} ({var.name!r})"
            check_name(where, var.name)
            rline = range_lines.get((io, idx))
            if not (math.isfinite(var.lo) and math.isfinite(var.hi)):
                err(f"{where}: range bounds must be finite", rline)
            elif not var.lo < var.hi:
                err(f"{where}: range lower bound must be below upper bound", rline)
            if not var.terms:
                err(f"{where}: variable has no terms", rline)
            seen: set[str] = set()
            for k, (tname, mf) in enumerate(var.terms, start=1):
                mline = mf_lines.get((io, idx, k))
                check_name(f"{where} term {k}", tname)
                if tname in seen:
                    warn(f"{where}: duplicate term name {tname!r}", mline)
                seen.add(tname)
                p = mf.params
                want = _MF_PARAM_COUNT.get(mf.kind)
                if want is None:
                    err(f"{where} term {tname!r}: unknown membership function kind {mf.kind!r}", mline)
                    continue
                if len(p) != want:
                    err(f"{where} term {tname!r}: {mf.kind} takes {want} parameters, got {len(p)}", mline)
                    continue
                if not all(math.isfinite(v) for v in p):
                    err(f"{where} term {tname!r}: parameters must be finite", mline)
                    continue
                if mf.kind == "gaussian" and p[0] <= 0:
                    err(f"{where} term {tname!r}: gaussian sigma must be positive", mline)
                elif mf.kind == "triangular" and not (p[0] <= p[1] <= p[2]):
                    err(f"{where} term {tname!r}: triangular needs a <= b <= c", mline)
                elif mf.kind == "trapezoidal" and not (p[0] <= p[1] <= p[2] <= p[3]):
                    err(f"{where} term {tname!r}: trapezoidal needs a <= b <= c <= d", mline)

    if not system.rules:
        warn("rulebase is empty; every inference will report no_rule_fired")
    for r, rule in enumerate(system.rules):
        line = rule_lines[r] if r < len(rule_lines) else None
        where = f"rule {r + 1}"
        if len(rule.antecedent) != len(system.inputs):
            err(f"{where}: expected {len(system.inputs)} antecedent entries", line)
            continue
        if len(rule.consequent) != len(system.outputs):
            err(f"{where}: expected {len(system.outputs)} consequent entries", line)
            continue
        if all(a == 0 for a in rule.antecedent):
            err(f"{where}: antecedent is all don't-care", line)
        for i, entry in enumerate(rule.antecedent):
            n_terms = len(system.inputs[i].terms)
            if abs(entry) > n_terms:
                err(
                    f"{where}: antecedent references term {entry} of input "
                    f"{i + 1}, which has {n_terms} terms",
                    line,
                )
        for o, entry in enumerate(rule.consequent):
            n_terms = len(system.outputs[o].terms)
            if entry < 0:
                err(f"{where}: negated consequent terms are not supported", line)
            elif entry > n_terms:
                err(
                    f"{where}: consequent references term {entry} of output "
                    f"{o + 1}, which has {n_terms} terms",
                    line,
                )
        if all(c == 0 for c in rule.consequent):
            warn(f"{where}: consequent is all zero; the rule has no effect", line)
        if not 0.0 < rule.weight <= 1.0:
            err(f"{where}: weight must be in (0, 1], got {format_number(rule.weight)}", line)
    return diags


def validate_fis(system: FuzzySystem) -> list[Diagnostic]:
    """Check every structural invariant of an in-memory system.

    Empty result means the system is safe to run and to serialize.
    """
    return _semantic_diagnostics(system)


def parse_fis(text: str) -> ParseResult:
    """Parse .fis text, returning a system plus diagnostics.

    The system is None whenever any error-severity diagnostic was
    produced; warnings alone do not block a parse.
    """
    doc, diags = _lex(text)
    interp = _Interp(doc)
    system = interp.run()
    return ParseResult(system=system, diagnostics=diags + interp.diags)


def serialize_fis(system: FuzzySystem) -> str:
    """Render a valid system in canonical .fis form.

    Raises ValueError when the system fails validation, since the result
    could not be parsed back faithfully.
    """
    problems = [d for d in validate_fis(system) if d.severity == ERROR]
    if problems:
        raise ValueError(f"cannot serialize invalid system: {problems[0].message}")
    out: list[str] = []
    out.append("[System]")
    out.append(f"Name='{system.name}'")
    out.append("Type='mamdani'")
    out.append("Version=2.0")
    out.append(f"NumInputs={len(system.inputs)}")
    out.append(f"NumOutputs={len(system.outputs)}")
    out.append(f"NumRules={len(system.rules)}")
    out.append(f"AndMethod='{system.and_method}'")
    out.append(f"OrMethod='{system.or_method}'")
    out.append(f"ImpMethod='{system.implication}'")
    out.append(f"AggMethod='{system.aggregation}'")
    out.append(f"DefuzzMethod='{system.defuzzification}'")
    if system.resolution != DEFAULT_RESOLUTION:
        # extension key; omitted at the default so stock files stay stock
        out.append(f"Resolution={system.resolution}")
    for io, variables in (("Input", system.inputs), ("Output", system.outputs)):
        for idx, var in enumerate(variables, start=1):
            out.append("")
            out.append(f"[{io}{idx}]")
            out.append(f"Name='{var.name}'")
            out.append(f"Range=[{format_number(var.lo)} {format_number(var.hi)}]")
            out.append(f"NumMFs={len(var.terms)}")
            for k, (tname, mf) in enumerate(var.terms, start=1):
                params = " ".join(format_number(p) for p in mf.params)
                out.append(f"MF{k}='{tname}':'{_KIND_TO_MF_TYPE[mf.kind]}',[{params}]")
    out.append("")
    out.append("[Rules]")
    for rule in system.rules:
        ante = " ".join(str(a) for a in rule.antecedent)
        cons = " ".join(str(c) for c in rule.consequent)
        conn = "1" if rule.connective == "and" else "2"
        out.append(f"{ante}, {cons} ({format_number(rule.weight)}) : {conn}")
    return "\n".join(out) + "\n"


def load_fis(path) -> ParseResult:
    """Parse a .fis file from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fis(fh.read())


def save_fis(system: FuzzySystem, path) -> None:
    """Write a system to disk in canonical form."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_fis(system))
