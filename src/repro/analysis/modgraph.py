"""AST-level module, import and function graphs for a Python package.

Everything in :mod:`repro.analysis` works from *parsed* source — modules
are never imported, so a module seeded with violations (or one that would
not even execute) can still be analyzed.  The loader walks a package
directory, derives dotted module names from file paths, and extracts:

* **imports**, each tagged with its scope (module vs. function level) and
  whether it lives under an ``if TYPE_CHECKING:`` guard (those never
  execute, so the world-boundary rules exempt them);
* **function definitions** with their qualified names (nested functions,
  methods, and classes defined inside factory functions all resolve — the
  audio-filter TA is a class inside :func:`make_audio_filter_ta`) and the
  textual base-class names of the enclosing class, which is how rules
  recognize TA / PTA entry points without executing anything.

Call expressions are *not* pre-extracted; rules walk function bodies
themselves via :func:`call_name`, the shared dotted-name printer
(``self.bundle.filter.apply`` and friends).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, resolved to a dotted target."""

    module: str          # importing module (dotted name)
    target: str          # imported module (dotted name)
    lineno: int
    type_checking: bool  # under `if TYPE_CHECKING:` — never executes
    scope: str           # "module" or "function"
    alias: str = ""      # local name the import binds ("np", "relay", "grab")
    symbol: str = ""     # symbol for from-imports of non-modules ("grab")


@dataclass(frozen=True)
class FunctionInfo:
    """One function/method definition with its resolution context."""

    module: str
    qualname: str               # e.g. "make_audio_filter_ta.AudioFilterTa._process"
    name: str                   # simple name
    lineno: int
    node: ast.AST = field(compare=False, hash=False)
    class_bases: tuple[str, ...] = ()  # simple names of enclosing class bases
    params: tuple[str, ...] = ()       # positional/kw parameter names, self dropped
    # Parameter name -> simple type name from the annotation ("FilterBundle");
    # only annotations with a static spelling are recorded.
    param_types: Mapping[str, str] = field(default_factory=dict)

    @property
    def class_qualname(self) -> str | None:
        """Qualname of the enclosing class, if this is a method."""
        if "." not in self.qualname:
            return None
        return self.qualname.rsplit(".", 1)[0]


@dataclass(frozen=True)
class ClassInfo:
    """One class definition with enough typing context for call resolution."""

    module: str
    qualname: str                      # e.g. "make_audio_filter_ta.AudioFilterTa"
    name: str                          # simple name
    bases: tuple[str, ...] = ()        # simple names of base classes
    # Attribute -> simple type name, from class-body AnnAssigns
    # (``asr: MatchedFilterAsr``), ``self.x: T = ...`` annotations and
    # ``self.x = ClassName(...)`` allocation sites inside methods.
    fields: Mapping[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Parsed view of one module."""

    name: str
    path: Path
    tree: ast.Module
    imports: list[ImportEdge]
    functions: dict[str, FunctionInfo]  # by qualname
    classes: dict[str, ClassInfo] = field(default_factory=dict)  # by qualname

    def functions_named(self, simple: str) -> list[FunctionInfo]:
        """All functions in this module with the given simple name."""
        return [f for f in self.functions.values() if f.name == simple]


@dataclass
class Project:
    """All modules of one package, by dotted name."""

    package: str
    root: Path
    modules: dict[str, ModuleInfo]


def _is_type_checking_test(test: ast.expr) -> bool:
    """Matches ``if TYPE_CHECKING:`` and ``if typing.TYPE_CHECKING:``."""
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def ann_name(expr: ast.expr | None) -> str | None:
    """Simple type name of an annotation, or None when it has no static one.

    ``FilterBundle`` → ``"FilterBundle"``; ``relay.RelayModule`` →
    ``"RelayModule"``; ``RelayModule | None`` → ``"RelayModule"``; string
    annotations parse recursively.  Subscripted generics (``list[T]``,
    ``dict[...]``) are containers, not the value's class — they return None.
    """
    if expr is None:
        return None
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        try:
            return ann_name(ast.parse(expr.value, mode="eval").body)
        except SyntaxError:
            return None
    if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
        # `T | None` — prefer whichever side names a class.
        return ann_name(expr.left) or ann_name(expr.right)
    return None


class _ModuleVisitor(ast.NodeVisitor):
    """Collects imports, function and class definitions in one pass."""

    def __init__(self, module_name: str, known: set[str]):
        self.module_name = module_name
        self.known = known  # dotted names of every module in the package
        self.imports: list[ImportEdge] = []
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self._class_fields: list[dict[str, str]] = []  # parallel to class stack
        self._qual: list[str] = []        # qualname stack
        self._class_bases: list[tuple[str, ...]] = []
        self._fn_params: list[dict[str, str]] = []  # enclosing-fn param types
        self._fn_depth = 0
        self._tc_depth = 0                # TYPE_CHECKING nesting

    # -- imports ---------------------------------------------------------------

    def _add_import(self, target: str, lineno: int,
                    alias: str = "", symbol: str = "") -> None:
        self.imports.append(
            ImportEdge(
                module=self.module_name,
                target=target,
                lineno=lineno,
                type_checking=self._tc_depth > 0,
                scope="function" if self._fn_depth else "module",
                alias=alias,
                symbol=symbol,
            )
        )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            # `import a.b` binds `a`; `import a.b as c` binds `c` to a.b.
            bound = alias.asname or alias.name.split(".")[0]
            self._add_import(alias.name, node.lineno, alias=bound)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:  # relative import: resolve against this module's package
            base = self.module_name.split(".")
            # level 1 = current package; each extra level pops one more.
            base = base[: len(base) - node.level]
            prefix = ".".join(base + ([node.module] if node.module else []))
        else:
            prefix = node.module or ""
        if not prefix:
            return
        for alias in node.names:
            # `from pkg.mod import name`: if pkg.mod.name is itself a module,
            # the edge targets the submodule; otherwise it targets pkg.mod.
            candidate = f"{prefix}.{alias.name}"
            is_module = candidate in self.known
            self._add_import(
                candidate if is_module else prefix,
                node.lineno,
                alias=alias.asname or alias.name,
                symbol="" if is_module else alias.name,
            )

    def visit_If(self, node: ast.If) -> None:
        if _is_type_checking_test(node.test):
            self._tc_depth += 1
            for child in node.body:
                self.visit(child)
            self._tc_depth -= 1
            for child in node.orelse:
                self.visit(child)
            return
        self.generic_visit(node)

    # -- definitions -----------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases = []
        for b in node.bases:
            if isinstance(b, ast.Name):
                bases.append(b.id)
            elif isinstance(b, ast.Attribute):
                bases.append(b.attr)
        self._qual.append(node.name)
        self._class_bases.append(tuple(bases))
        fields: dict[str, str] = {}
        self._class_fields.append(fields)
        qualname = ".".join(self._qual)
        # Class-body annotations (dataclass fields: ``asr: MatchedFilterAsr``).
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                t = ann_name(stmt.annotation)
                if t:
                    fields[stmt.target.id] = t
        self.generic_visit(node)
        self.classes[qualname] = ClassInfo(
            module=self.module_name,
            qualname=qualname,
            name=node.name,
            bases=tuple(bases),
            fields=dict(fields),
        )
        self._class_fields.pop()
        self._class_bases.pop()
        self._qual.pop()

    def _self_attr(self, target: ast.expr) -> str | None:
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr
        return None

    def _record_self_field(self, attr: str, type_name: str | None,
                           explicit: bool) -> None:
        if not type_name or not self._class_fields:
            return
        fields = self._class_fields[-1]
        if explicit:
            fields[attr] = type_name
        else:
            fields.setdefault(attr, type_name)

    def _value_type(self, value: ast.expr | None) -> str | None:
        """Static type of an assigned value: allocation site or typed name."""
        if isinstance(value, ast.Call):
            name = call_name(value.func)
            if name is None:
                return None
            simple = name.split(".")[-1]
            # Heuristic: only constructor-looking calls type the target.
            return simple if simple[:1].isupper() else None
        if isinstance(value, ast.Name):
            # `self.bundle = bundle`: the name's annotation, looked up in
            # the enclosing (possibly factory) functions' parameters.
            for params in reversed(self._fn_params):
                if value.id in params:
                    return params[value.id]
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            attr = self._self_attr(target)
            if attr is not None:
                self._record_self_field(attr, self._value_type(node.value),
                                        explicit=False)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        attr = self._self_attr(node.target)
        if attr is not None:
            self._record_self_field(attr, ann_name(node.annotation),
                                    explicit=True)
        self.generic_visit(node)

    def _visit_fn(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._qual.append(node.name)
        qualname = ".".join(self._qual)
        args = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        params = tuple(
            a.arg for a in args if a.arg not in ("self", "cls")
        )
        param_types = {
            a.arg: t for a in args
            if a.arg not in ("self", "cls")
            for t in (ann_name(a.annotation),) if t
        }
        self.functions[qualname] = FunctionInfo(
            module=self.module_name,
            qualname=qualname,
            name=node.name,
            lineno=node.lineno,
            node=node,
            class_bases=self._class_bases[-1] if self._class_bases else (),
            params=params,
            param_types=param_types,
        )
        self._fn_depth += 1
        self._fn_params.append(param_types)
        self.generic_visit(node)
        self._fn_params.pop()
        self._fn_depth -= 1
        self._qual.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node)


def load_project(root: Path, package: str = "repro") -> Project:
    """Parse every ``*.py`` under ``root`` into a :class:`Project`.

    ``root`` is the directory of the package itself (the one containing
    ``__init__.py``); module names are ``package`` + the dotted relative
    path, with ``__init__`` collapsing onto the package name.
    """
    root = Path(root)
    paths = sorted(root.rglob("*.py"))
    names: dict[Path, str] = {}
    for path in paths:
        rel = path.relative_to(root).with_suffix("")
        parts = [package] + [p for p in rel.parts]
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names[path] = ".".join(parts)

    known = set(names.values())
    modules: dict[str, ModuleInfo] = {}
    for path, name in names.items():
        tree = ast.parse(path.read_text(), filename=str(path))
        visitor = _ModuleVisitor(name, known)
        visitor.visit(tree)
        modules[name] = ModuleInfo(
            name=name,
            path=path,
            tree=tree,
            imports=visitor.imports,
            functions=visitor.functions,
            classes=visitor.classes,
        )
    return Project(package=package, root=root, modules=modules)


def rel_path(project: Project, mod: ModuleInfo) -> str:
    """Display path for a module, repo-relative when the layout allows.

    Assumes the conventional ``<repo>/src/<package>/`` layout two levels
    up from the package root; falls back to the absolute path.
    """
    try:
        return str(mod.path.relative_to(project.root.parent.parent))
    except ValueError:
        return str(mod.path)


def call_name(func: ast.expr) -> str | None:
    """Dotted name of a call target, or None if it has no static spelling.

    ``ctx.invoke_pta`` → ``"ctx.invoke_pta"``; ``np.random.default_rng`` →
    ``"np.random.default_rng"``.  Chains rooted in calls or subscripts
    (``json.dumps(d).encode``) return None — callers treat those as opaque.
    """
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def dotted_suffix_match(name: str, patterns: tuple[str, ...]) -> str | None:
    """First pattern that matches ``name`` on dotted-component boundaries.

    ``"self.bundle.filter.apply"`` matches pattern ``"filter.apply"`` but
    not ``"r.apply"``; a pattern with no dot matches the final component.
    """
    for pat in patterns:
        if name == pat or name.endswith("." + pat):
            return pat
    return None
