"""Module discovery and parsing.

A :class:`Program` is the parsed image of one Python package tree: every
``.py`` file under a package root, keyed by dotted module name, each
carrying its AST, source, display path, and its
``# repro-lint: ignore[...]`` suppression map.  Loose files outside any
package (``benchmarks/``, single fixtures) load into a package-less
:class:`Program` that only the per-file rules visit.

Tests analyze fixture packages and *mutated* copies of the real tree
without touching disk via ``source_overrides`` — the seeded regression
tests inject ``time.time()`` into a protocol hook this way and assert
the checker fires.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .suppressions import SuppressionMap, parse_suppressions

__all__ = ["ModuleInfo", "Program"]


@dataclass
class ModuleInfo:
    """One parsed module of the analyzed program."""

    name: str
    path: str
    source: str
    tree: ast.Module
    suppressions: SuppressionMap = field(default_factory=SuppressionMap)


class Program:
    """Every parsed module of one package tree.

    Parameters
    ----------
    modules:
        Dotted module name -> :class:`ModuleInfo`.
    package:
        The root package name (``"repro"`` for the real tree, the
        fixture package's name in tests; empty for loose files).
    """

    def __init__(self, modules: Dict[str, ModuleInfo], package: str) -> None:
        self.modules = modules
        self.package = package
        #: Files that failed to parse: (path, message).
        self.parse_errors: List[Tuple[str, str]] = []
        #: code -> findings silenced by a directive (see :meth:`suppresses`).
        self.suppressed: Counter[str] = Counter()
        self._by_path: Dict[str, ModuleInfo] = {}

    def get(self, name: str) -> Optional[ModuleInfo]:
        return self.modules.get(name)

    def suppresses(self, code: str, *locations: Tuple[str, int]) -> bool:
        """True when a directive at any ``(path, line)`` silences *code*.

        Each silenced finding is counted once in :attr:`suppressed`.
        Whole-program checkers pass both ends of a propagation path:
        suppressing at the leaf silences every path through that
        operation, suppressing at the root def accepts the function.
        """
        for path, line in locations:
            module = self._by_path.get(path)
            if module is not None and module.suppressions.is_suppressed(
                line, code
            ):
                self.suppressed[code] += 1
                return True
        return False

    def is_internal(self, module: str) -> bool:
        """True when *module* belongs to the analyzed package."""
        return module == self.package or module.startswith(
            self.package + "."
        )

    @classmethod
    def load(
        cls,
        root: Path,
        *,
        source_overrides: Optional[Mapping[str, str]] = None,
    ) -> "Program":
        """Parse every ``.py`` file under the package directory *root*.

        *root* is the package directory itself (``src/repro``); its
        basename is the package name.  *source_overrides* maps dotted module names to replacement
        source text (modules not on disk may be added this way).
        """
        root = Path(root)
        if not root.is_dir():
            raise ConfigurationError(
                f"analysis root {root} is not a directory"
            )
        pkg = root.name
        overrides = dict(source_overrides or {})
        program = cls({}, pkg)
        for file_path in sorted(root.rglob("*.py")):
            rel = file_path.relative_to(root)
            parts = (pkg,) + rel.parts[:-1]
            stem = rel.stem
            name = ".".join(parts) if stem == "__init__" else ".".join(
                parts + (stem,)
            )
            source = overrides.pop(name, None)
            if source is None:
                source = file_path.read_text(encoding="utf-8")
            program._add(name, str(file_path), source)
        for name, source in sorted(overrides.items()):
            # Synthetic modules injected by tests (no on-disk file).
            pseudo = "<override>/" + name.replace(".", "/") + ".py"
            program._add(name, pseudo, source)
        return program

    @classmethod
    def load_files(cls, files: Sequence[Path]) -> "Program":
        """Parse loose ``.py`` files, keyed by path, into no package."""
        program = cls({}, "")
        for path in files:
            program._add(str(path), str(path), path.read_text(encoding="utf-8"))
        return program

    def _add(self, name: str, path: str, source: str) -> None:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as error:
            self.parse_errors.append(
                (path, f"line {error.lineno}: {error.msg}")
            )
            return
        module = ModuleInfo(
            name=name,
            path=path,
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )
        self.modules[name] = module
        self._by_path[path] = module
