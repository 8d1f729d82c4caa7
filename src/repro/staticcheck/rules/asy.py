"""ASY — no blocking calls on the event loop.

The AWEL runner executes operators on asyncio; one synchronous sleep,
lock acquisition or blocking I/O call inside an ``async def`` stalls
every concurrently scheduled task.

- **ASY001** blocking-call-in-async: ``time.sleep``, ``.acquire()``
  (without ``blocking=False``), ``.join()`` on threads/processes,
  ``open``/``input``, ``subprocess.run`` and friends, and synchronous
  HTTP clients, directly in an ``async def`` body. Off-loop work
  belongs in ``asyncio.to_thread`` (the SMMF client pattern).
- **ASY002** unbounded-queue-get-in-async: ``<queue>.get()`` /
  ``<queue>.get_nowait``-less waits with no ``timeout=`` inside
  ``async def`` — an empty queue parks the loop forever.
- **ASY003** blocking-sync-primitive-in-async: a non-awaited
  ``.wait()`` (``threading.Condition``/``Event``), an argument-less
  ``.join()`` (threads/processes; ``str.join`` takes an argument and
  is exempt), or a blocking ``<queue>.put()`` inside ``async def``.
  ``await``-ed calls are fine — that is how asyncio's own primitives
  are used — including anywhere under an ``await`` expression
  (``await asyncio.wait_for(event.wait(), ...)``).
- **ASY004** thread-hop-twin: ``async def aX`` whose whole body
  (docstring aside) is ``await asyncio.to_thread(self.X, ...)`` — an
  "async" twin that parks a thread per call instead of sharing one
  async implementation.

Nested non-async ``def`` bodies are skipped: they run wherever the
caller runs them (usually an executor thread), not on the loop.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.diagnostics import diagnostic
from repro.staticcheck.model import Finding, Project, SourceModule
from repro.staticcheck.rules import register

_BLOCKING_NAMES = {
    "time.sleep",
    "open",
    "input",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "socket.create_connection",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
}

#: Attribute calls that block regardless of receiver type.
_BLOCKING_ATTRS = {"acquire"}


def _async_statements(tree: ast.Module) -> Iterator[tuple[ast.AST, str]]:
    """Every AST node in an ``async def`` body, skipping nested sync
    defs and lambdas (they run off-loop)."""

    def walk(node: ast.AST, owner: str) -> Iterator[tuple[ast.AST, str]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.AsyncFunctionDef):
                yield from walk(child, child.name)
                continue
            yield child, owner
            yield from walk(child, owner)

    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            for statement in node.body:
                if isinstance(statement, (ast.FunctionDef, ast.Lambda)):
                    continue
                if isinstance(statement, ast.AsyncFunctionDef):
                    continue  # the outer ast.walk visits it itself
                yield statement, node.name
                yield from walk(statement, node.name)


def _has_keyword(call: ast.Call, name: str) -> bool:
    return any(kw.arg == name for kw in call.keywords)


def _keyword_is_false(call: ast.Call, name: str) -> bool:
    for kw in call.keywords:
        if kw.arg == name and isinstance(kw.value, ast.Constant):
            return kw.value.value is False
    return False


def _receiver_text(node: ast.expr, module: SourceModule) -> str:
    return (module.dotted_name(node) or "").lower()


def _awaited_nodes(tree: ast.Module) -> set[int]:
    """ids of every AST node that sits under an ``await`` expression."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Await):
            for sub in ast.walk(node.value):
                ids.add(id(sub))
    return ids


def _module_findings(module: SourceModule) -> Iterable[Finding]:
    seen: set[int] = set()
    awaited = _awaited_nodes(module.tree)
    for node, owner in _async_statements(module.tree):
        if not isinstance(node, ast.Call) or node.lineno in seen:
            continue
        name = module.dotted_name(node.func)
        if name in _BLOCKING_NAMES:
            seen.add(node.lineno)
            yield Finding(
                diagnostic(
                    "ASY001",
                    f"blocking call {name}() inside async def {owner}",
                    source="static",
                    subject=name,
                    hint="await an async equivalent or off-load via "
                    "asyncio.to_thread",
                ),
                module.rel,
                node.lineno,
            )
            continue
        if not isinstance(node.func, ast.Attribute):
            continue
        attr = node.func.attr
        if attr in _BLOCKING_ATTRS and not _keyword_is_false(
            node, "blocking"
        ):
            seen.add(node.lineno)
            yield Finding(
                diagnostic(
                    "ASY001",
                    f".{attr}() blocks the event loop inside "
                    f"async def {owner}",
                    source="static",
                    subject=f".{attr}",
                    hint="pass blocking=False and poll, or off-load "
                    "via asyncio.to_thread",
                ),
                module.rel,
                node.lineno,
            )
            continue
        if (
            attr in ("wait", "join")
            and id(node) not in awaited
            and not (attr == "join" and node.args)
        ):
            seen.add(node.lineno)
            primitive = (
                "Condition/Event .wait()"
                if attr == "wait"
                else "thread/process .join()"
            )
            yield Finding(
                diagnostic(
                    "ASY003",
                    f"non-awaited {primitive} blocks the event loop "
                    f"inside async def {owner}",
                    source="static",
                    subject=f".{attr}",
                    hint="await an asyncio primitive, or off-load via "
                    "asyncio.to_thread",
                ),
                module.rel,
                node.lineno,
            )
            continue
        if (
            attr == "put"
            and "queue" in _receiver_text(node.func.value, module)
            and not _has_keyword(node, "timeout")
            and not _keyword_is_false(node, "block")
        ):
            seen.add(node.lineno)
            yield Finding(
                diagnostic(
                    "ASY003",
                    f"blocking queue .put() inside async def {owner} "
                    f"parks the event loop when the queue is full",
                    source="static",
                    subject=module.dotted_name(node.func) or ".put",
                    hint="pass block=False or timeout= and handle "
                    "queue.Full, or use an asyncio.Queue",
                ),
                module.rel,
                node.lineno,
            )
            continue
        if (
            attr == "get"
            and "queue" in _receiver_text(node.func.value, module)
            and not _has_keyword(node, "timeout")
        ):
            seen.add(node.lineno)
            yield Finding(
                diagnostic(
                    "ASY002",
                    f"queue .get() without timeout inside async def "
                    f"{owner} parks the event loop",
                    source="static",
                    subject=module.dotted_name(node.func) or ".get",
                    hint="pass timeout= and handle queue.Empty, or "
                    "use an asyncio.Queue",
                ),
                module.rel,
                node.lineno,
            )


def _thread_hop_twins(module: SourceModule) -> Iterable[Finding]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.AsyncFunctionDef):
            continue
        docstring = ast.get_docstring(node) is not None
        body = node.body[1:] if docstring else node.body
        statement = body[0] if len(body) == 1 else None
        awaited = getattr(statement, "value", None)
        call = getattr(awaited, "value", None)
        twin = f"self.{node.name[1:]}"
        if (
            isinstance(statement, (ast.Return, ast.Expr))
            and isinstance(awaited, ast.Await)
            and isinstance(call, ast.Call)
            and module.dotted_name(call.func) == "asyncio.to_thread"
            and call.args
            and node.name.startswith("a")
            and module.dotted_name(call.args[0]) == twin
        ):
            yield Finding(
                diagnostic(
                    "ASY004",
                    f"async def {node.name} only runs {twin} on a thread",
                    source="static",
                    subject=node.name,
                    hint="make the async path the implementation, or "
                    "delete the twin",
                ),
                module.rel,
                node.lineno,
            )


@register(
    "ASY", "async hygiene", ("ASY001", "ASY002", "ASY003", "ASY004")
)
def check(project: Project) -> Iterable[Finding]:
    for module in project:
        yield from _module_findings(module)
        yield from _thread_hop_twins(module)
