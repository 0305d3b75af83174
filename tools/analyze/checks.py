"""Suspension-point and determinism hazard checks (A1-A5).

All checks operate on the lexed token stream plus the function bodies
from scopes.py.  They deliberately have no type system; lifetime
reasoning uses the conventions this codebase actually follows:

  * frame-local state (by-value params, locals) is safe to hold across a
    suspension point — the coroutine frame owns it and the simulator is
    single-threaded;
  * anything reached through `this`, a reference/pointer parameter, a
    `_`-suffixed member, or an unknown name aliases state other
    coroutines can mutate between resumptions — iterators, element
    references and interior pointers into such containers must not be
    live across `co_await`;
  * deferred-event lambdas (Scheduler::After / At / ScheduleAt /
    ScheduleAfter) outlive the enclosing frame: they may capture only
    by value (a shared_ptr copy is the sanctioned lifetime guard),
    never `this` or stack locals by reference;
  * a coroutine lambda's captures live in the lambda OBJECT, not the
    coroutine frame — an immediately-invoked capturing coroutine lambda
    dangles at its first suspension, and by-ref captures dangle whenever
    the spawned task outlives the enclosing scope.  State is passed as
    explicit parameters instead (see sim/task.h conventions).

A finding line may opt out with `// analyze:allow(<check>)` naming the
check (e.g. `// analyze:allow(A1)`), for patterns that are provably safe
— immutable containers, registries that are never iterated — with the
justification in an adjacent comment, visible in review.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from . import lexer, scopes
from .findings import Finding
from .lexer import IDENT, NUMBER, PUNCT, Token

ITERATOR_METHODS = {"find", "begin", "end", "lower_bound", "upper_bound",
                    "rbegin", "rend", "cbegin", "cend"}
ELEMENT_METHODS = {"front", "back", "at"}
DEFERRAL_CALLS = {"After", "At", "ScheduleAt", "ScheduleAfter"}
SUSPEND_KEYWORDS = {"co_await", "co_yield"}
FLOAT_TYPES = {"float", "double"}
PTRINT_TYPES = {"uintptr_t", "intptr_t", "size_t", "ptrdiff_t",
                "uint64_t", "uint32_t", "unsigned"}
ORDERED_CONTAINERS = {"map", "set", "multimap", "multiset",
                      "FlatMap", "FlatSet"}


def _brace_depths(tokens: List[Token], start: int, end: int) -> List[int]:
    """Brace depth per token index within [start, end), relative to start."""
    depths = [0] * (end - start)
    d = 0
    for k in range(start, end):
        t = tokens[k]
        if t.kind == PUNCT and t.text == "{":
            depths[k - start] = d
            d += 1
        elif t.kind == PUNCT and t.text == "}":
            d -= 1
            depths[k - start] = d
        else:
            depths[k - start] = d
    return depths


class FunctionAnalysis:
    """Frame-locality bookkeeping for one function body."""

    def __init__(self, lf: lexer.LexedFile, fb: scopes.FunctionBody):
        self.lf = lf
        self.fb = fb
        self.tokens = lf.tokens
        self.start = fb.body_start
        self.end = fb.body_end
        self.depths = _brace_depths(self.tokens, self.start, self.end)
        # By-value params are frame-local roots; aliasing params are not.
        self.local_roots: Set[str] = {
            p.name for p in fb.params.values() if not p.by_ref}
        self.alias_roots: Set[str] = {
            p.name for p in fb.params.values() if p.by_ref}
        self.tainted: Set[str] = set()      # locals holding interior pointers
        # Suspension points of THIS frame: co_await/co_yield outside nested
        # lambda bodies (those belong to other coroutine frames), and outside
        # co_return statements (control never flows past a co_return, so
        # nothing this frame holds is re-dereferenced afterwards).
        self._lambda_ranges = _nested_lambda_ranges(
            self.tokens, self.start + 1, self.end - 1)
        self.suspends: List[int] = []
        self._stmt_end: Dict[int, int] = {}
        for k in range(self.start, self.end):
            t = self.tokens[k]
            if t.kind != IDENT or t.text not in SUSPEND_KEYWORDS:
                continue
            if any(s <= k < e for s, e in self._lambda_ranges):
                continue
            if self._in_co_return_stmt(k):
                continue
            self.suspends.append(k)
            self._stmt_end[k] = self._find_stmt_end(k)
        self._scan_locals()

    def _in_co_return_stmt(self, idx: int) -> bool:
        for k in range(idx - 1, max(self.start, idx - 64), -1):
            t = self.tokens[k]
            if t.kind == IDENT and t.text == "co_return":
                return True
            if t.kind == PUNCT and t.text in (";", "{", "}"):
                return False
        return False

    def _find_stmt_end(self, idx: int) -> int:
        """Token index where the statement containing the suspension ends:
        argument-building uses before this point happen BEFORE the frame
        suspends; only uses after it see post-resumption state."""
        depth = 0
        for k in range(idx + 1, self.end):
            t = self.tokens[k]
            if t.kind == PUNCT:
                if t.text == "(":
                    depth += 1
                elif t.text == ")":
                    depth -= 1
                elif t.text == ";" and depth <= 0:
                    return k
                elif t.text == "{" and depth <= 0:
                    # `if (co_await ...) { ... }`: the block runs resumed.
                    return k
        return self.end

    def stmt_end(self, suspend_idx: int) -> int:
        return self._stmt_end.get(suspend_idx, suspend_idx)

    def depth_at(self, idx: int) -> int:
        return self.depths[idx - self.start]

    def scope_end(self, idx: int) -> int:
        """First token index after idx where the brace depth drops below the
        depth at idx (i.e. the end of the enclosing block)."""
        d = self.depth_at(idx)
        for k in range(idx + 1, self.end):
            if self.depth_at(k) < d:
                return k
        return self.end

    def suspends_between(self, a: int, b: int) -> bool:
        return any(a < s < b for s in self.suspends)

    def _scan_locals(self) -> None:
        """Collect frame-local declaration names: `Type name =/;/(/{`,
        `vector<T> name`, `auto name =`.  A second forward pass classifies
        reference/pointer bindings: `auto& r = <frame-local expr>` is itself
        frame-local; bound to anything else it aliases."""
        toks = self.tokens
        k = self.start
        while k < self.end - 2:
            t = toks[k]
            is_type_tail = (t.kind == IDENT
                            and t.text not in scopes._CONTROL_KEYWORDS) or \
                           (t.kind == PUNCT and t.text in (">", ">>"))
            if is_type_tail:
                nxt = toks[k + 1]
                # `Type name`, `Tmpl<...> name`, `auto name`.
                if nxt.kind == IDENT and k + 2 < self.end:
                    after = toks[k + 2]
                    if after.kind == PUNCT and after.text in ("=", ";", "{", "(", ","):
                        prev = toks[k - 1]
                        # Reject member access and casts: `.name x`, `->name x`.
                        if not (prev.kind == PUNCT and prev.text in (".", "->")):
                            if after.text != "(" or _looks_like_ctor_args(toks, k + 2, self.end):
                                self.local_roots.add(nxt.text)
                            # Multi-declarator: `double a = 0, b = 0;`
                            if after.text in ("=", ","):
                                self._scan_declarator_list(k + 2, nxt.text)
            k += 1
        # Forward pass, in token order: `&`/`*` declarator bindings and
        # range-for loop variables propagate the locality of what they bind.
        k = self.start
        while k < self.end - 3:
            t = toks[k]
            if t.kind == PUNCT and t.text in ("&", "*") \
                    and toks[k + 1].kind == IDENT \
                    and toks[k + 2].kind == PUNCT and toks[k + 2].text == "=" \
                    and toks[k - 1].kind == IDENT:
                name = toks[k + 1].text
                init, _ = _expr_until(toks, k + 3, self.end, (";",))
                # `T* p = vec[i]` copies the element (a pointer value) into
                # the frame: p itself cannot dangle when vec mutates.  Only
                # `T* p = &expr` and `T& r = expr` alias the storage.
                ptr_copy = t.text == "*" and not (
                    init and init[0].kind == PUNCT and init[0].text == "&")
                if ptr_copy or (init and self.root_is_local(init)):
                    self.alias_roots.discard(name)
                    self.local_roots.add(name)
                else:
                    self.local_roots.discard(name)
                    self.alias_roots.add(name)
            elif t.kind == IDENT and t.text == "for" \
                    and toks[k + 1].kind == PUNCT and toks[k + 1].text == "(":
                close = scopes.match_paren(toks, k + 1)
                colon = _range_for_colon(toks, k + 1, close)
                if colon is not None:
                    expr = toks[colon + 1 : close]
                    decl = toks[k + 2 : colon]
                    names = _loop_var_names(decl)
                    by_ref = any(d.kind == PUNCT and d.text in ("&", "*")
                                 for d in decl)
                    ends_call = bool(expr) and expr[-1].kind == PUNCT \
                        and expr[-1].text == ")"
                    # A by-value loop var copies the element; a by-ref var
                    # over frame-local storage stays local; a by-ref var over
                    # anything else (incl. accessor call results, which may
                    # return references to members) aliases.
                    local = (not by_ref) or \
                        (self.root_is_local(expr) and not ends_call)
                    # Reclassification is last-wins: a name reused across
                    # sibling loops (builder loop by-ref over a member map,
                    # then a worker loop by-ref over the local snapshot)
                    # takes its most recent binding.
                    for name in names:
                        if local:
                            self.alias_roots.discard(name)
                            self.local_roots.add(name)
                        else:
                            self.local_roots.discard(name)
                            self.alias_roots.add(name)
            k += 1

    def _scan_declarator_list(self, eq_idx: int, first: str) -> None:
        toks = self.tokens
        depth = 0
        k = eq_idx
        while k < self.end:
            t = toks[k]
            if t.kind == PUNCT:
                if t.text in ("(", "[", "{"):
                    depth += 1
                elif t.text in (")", "]", "}"):
                    if depth == 0:
                        return
                    depth -= 1
                elif t.text == ";" and depth == 0:
                    return
                elif t.text == "," and depth == 0:
                    if k + 1 < self.end and toks[k + 1].kind == IDENT:
                        self.local_roots.add(toks[k + 1].text)
            k += 1

    # --- expression classification ---

    def root_is_local(self, expr: List[Token]) -> bool:
        """True when the expression is rooted in frame-local state."""
        # Strip leading punctuation that doesn't change the root.
        i = 0
        while i < len(expr) and expr[i].kind == PUNCT and expr[i].text in ("(", "*", "&"):
            i += 1
        if i >= len(expr):
            return False
        t = expr[i]
        if t.kind != IDENT:
            return False
        if t.text == "this":
            return False
        if t.text in ("std",):  # std::move(x) etc: recurse into the args
            return self.root_is_local(expr[i + 2:]) if len(expr) > i + 2 else False
        name = t.text
        # A call `name(...)` is not a frame-local root (returns a view into
        # something unless it's a by-value temp — callers special-case temps).
        if i + 1 < len(expr) and expr[i + 1].kind == PUNCT and expr[i + 1].text == "(":
            return False
        if name in self.tainted:
            return False
        if name in self.alias_roots:
            return False
        if name in self.local_roots:
            return True
        if name.endswith("_"):  # member naming convention
            return False
        return False  # unknown: conservative


def _nested_lambda_ranges(tokens: List[Token], start: int,
                          end: int) -> List[Tuple[int, int]]:
    """Body ranges of lambdas nested inside [start, end): their co_awaits
    suspend OTHER frames, not the enclosing one."""
    out: List[Tuple[int, int]] = []
    k = start
    while k < end:
        t = tokens[k]
        if t.kind == PUNCT and t.text == "{" \
                and scopes._find_lambda_intro(tokens, k) is not None:
            close = scopes.match_brace(tokens, k)
            out.append((k, close))
            k = close
            continue
        k += 1
    return out


def _loop_var_names(decl: List[Token]) -> List[str]:
    """Loop variable name(s) of a range-for declaration, including
    structured bindings `auto& [a, b]`."""
    for j, d in enumerate(decl):
        if d.kind == PUNCT and d.text == "[":
            return [x.text for x in decl[j + 1 :] if x.kind == IDENT]
    for d in reversed(decl):
        if d.kind == IDENT and d.text not in ("const", "auto"):
            return [d.text]
        if d.kind == IDENT:
            break
    return []


def _looks_like_ctor_args(tokens: List[Token], paren_idx: int, end: int) -> bool:
    """Distinguish `Type name(args);` (a declaration) from a function
    declaration `Type name(Type arg)`. Heuristic: ctor args rarely contain
    two consecutive identifiers (type + name)."""
    close = scopes.match_paren(tokens, paren_idx)
    if close >= end:
        return False
    k = paren_idx + 1
    while k < close - 1:
        if tokens[k].kind == IDENT and tokens[k + 1].kind == IDENT:
            return False
        k += 1
    return True


def _expr_until(tokens: List[Token], start: int, end: int,
                stops: Tuple[str, ...]) -> Tuple[List[Token], int]:
    """Tokens from start until a stop punct at paren/bracket depth 0."""
    out: List[Token] = []
    depth = 0
    k = start
    while k < end:
        t = tokens[k]
        if t.kind == PUNCT:
            if t.text in ("(", "[", "{", "<"):
                depth += 1
            elif t.text in (")", "]", "}", ">"):
                if depth == 0 and t.text in stops:
                    return out, k
                depth = max(0, depth - 1)
            elif depth == 0 and t.text in stops:
                return out, k
        out.append(t)
        k += 1
    return out, k


# --------------------------------------------------------------------------
# A1: references / iterators / interior pointers across a suspension point.
# --------------------------------------------------------------------------

def check_a1(lf: lexer.LexedFile, functions: List[scopes.FunctionBody],
             path: str) -> List[Finding]:
    out: List[Finding] = []
    for fb in functions:
        if not fb.is_coroutine:
            continue
        fa = FunctionAnalysis(lf, fb)
        _a1_taint_interior_pointer_vectors(fa)
        out += _a1_range_for(fa, path)
        out += _a1_bindings(fa, path)
    return out


def _a1_range_for(fa: FunctionAnalysis, path: str) -> List[Finding]:
    """Range-for over a non-frame-local container with a suspension point in
    the loop body: the hidden iterator is re-dereferenced after resumption,
    after arbitrary code may have mutated the container."""
    out: List[Finding] = []
    toks, k = fa.tokens, fa.start
    while k < fa.end:
        t = toks[k]
        if t.kind == IDENT and t.text == "for" and k + 1 < fa.end \
                and toks[k + 1].kind == PUNCT and toks[k + 1].text == "(":
            close = scopes.match_paren(toks, k + 1)
            colon = _range_for_colon(toks, k + 1, close)
            if colon is not None:
                expr = toks[colon + 1 : close]
                body_start = close + 1
                if body_start < fa.end and toks[body_start].kind == PUNCT \
                        and toks[body_start].text == "{":
                    body_end = scopes.match_brace(toks, body_start)
                else:
                    _, semi = _expr_until(toks, body_start, fa.end, (";",))
                    body_end = semi
                has_suspend = any(body_start <= s < body_end for s in fa.suspends)
                ends_in_call = bool(expr) and expr[-1].kind == PUNCT and expr[-1].text == ")"
                if has_suspend and expr and not ends_in_call \
                        and not fa.root_is_local(expr):
                    cname = "".join(e.text for e in expr)
                    tainted = len(expr) == 1 and expr[0].text in fa.tainted
                    why = ("holds interior pointers into a non-local container"
                           if tainted else "is not owned by this coroutine frame")
                    out.append(Finding(
                        path, t.line, "A1", "A1.range-for",
                        f"range-for over `{cname}` {why} and the loop body "
                        "suspends (co_await): the hidden iterator is "
                        "re-dereferenced after resumption, when the container "
                        "may have been mutated. Snapshot the elements by value "
                        "before the loop, or restructure so no suspension "
                        "happens while iterating.",
                        function=fa.fb.name, symbol=cname))
        k += 1
    return out


def _range_for_colon(tokens: List[Token], open_paren: int,
                     close_paren: int) -> Optional[int]:
    depth = 0
    for k in range(open_paren + 1, close_paren):
        t = tokens[k]
        if t.kind == PUNCT:
            if t.text in ("(", "[", "{", "<"):
                depth += 1
            elif t.text in (")", "]", "}", ">"):
                depth -= 1
            elif t.text == ";" and depth == 0:
                return None  # classic for
            elif t.text == ":" and depth == 0:
                return k
    return None


def _a1_bindings(fa: FunctionAnalysis, path: str) -> List[Finding]:
    """Iterator / element-reference bindings used after a later co_await."""
    out: List[Finding] = []
    toks = fa.tokens
    # Collect bindings: name -> list of (bind_idx, kind, container_repr).
    bindings: List[Tuple[str, int, str, str]] = []
    iterator_vars: Dict[str, str] = {}
    k = fa.start
    while k < fa.end - 1:
        t = toks[k]
        if t.kind == PUNCT and t.text == "=" and k > fa.start:
            name_tok = toks[k - 1]
            if name_tok.kind == IDENT:
                init, _ = _expr_until(toks, k + 1, fa.end, (";",))
                kind, container = _classify_binding(fa, toks, k - 1, init,
                                                    iterator_vars)
                if kind is not None:
                    bindings.append((name_tok.text, k, kind, container))
                    if kind == "iterator":
                        iterator_vars[name_tok.text] = container
        k += 1
    # Liveness: for each binding, any use after an intervening suspension —
    # within the binding's scope and before the next rebinding of the name —
    # is a finding.
    by_name: Dict[str, List[Tuple[int, str, str]]] = {}
    for name, idx, kind, container in bindings:
        by_name.setdefault(name, []).append((idx, kind, container))
    for name, binds in by_name.items():
        binds.sort()
        for bi, (idx, kind, container) in enumerate(binds):
            live_end = fa.scope_end(idx)
            if bi + 1 < len(binds):
                live_end = min(live_end, binds[bi + 1][0] - 1)
            # A use only counts when it comes AFTER the end of the statement
            # containing a suspension: uses inside that statement build the
            # call arguments before the frame suspends.
            first_suspend = use = None
            for s in fa.suspends:
                if not idx < s < live_end:
                    continue
                u = next((u for u in range(fa.stmt_end(s) + 1, live_end)
                          if toks[u].kind == IDENT and toks[u].text == name),
                         None)
                if u is not None:
                    first_suspend, use = s, u
                    break
            if use is None:
                continue
            what = ("an iterator into" if kind == "iterator"
                    else "a reference/pointer to an element of")
            msg = (
                f"`{name}` is {what} `{container}`, which is not owned "
                "by this coroutine frame, and is used after a co_await "
                f"at line {toks[first_suspend].line} (use at line "
                f"{toks[use].line}): the container can be mutated while "
                "suspended, invalidating it. Copy the element by value "
                "before suspending, or re-look it up after resumption.")
            out.append(Finding(
                path, toks[idx].line, "A1", f"A1.{kind}",
                msg, function=fa.fb.name, symbol=name))
    return out


def _repr_expr(toks: List[Token]) -> str:
    s = "".join(t.text for t in toks)
    return s if len(s) <= 48 else s[:45] + "..."


def _classify_binding(fa: FunctionAnalysis, toks: List[Token], name_idx: int,
                      init: List[Token],
                      iterator_vars: Dict[str, str]):
    """(kind, container) for A1-relevant bindings, else (None, "").
    iterator_vars maps already-seen iterator names to their container."""
    if not init:
        return None, ""
    # Lambda initializers are their own world; nested bindings are analyzed
    # when the lambda body itself is walked.
    if init[0].kind == PUNCT and init[0].text == "[":
        return None, ""
    # Iterator-yielding member call spanning the WHOLE initializer:
    # `<base> .|-> method ( ... )` — a method result buried inside a larger
    # expression (static_cast<int>(std::max_element(v.begin(), ...))) does
    # not bind an iterator.
    for j in range(len(init) - 3):
        if init[j].kind == PUNCT and init[j].text in (".", "->") \
                and init[j + 1].kind == IDENT \
                and init[j + 1].text in ITERATOR_METHODS \
                and init[j + 2].kind == PUNCT and init[j + 2].text == "(":
            depth = 0
            close = -1
            for m in range(j + 2, len(init)):
                if init[m].kind == PUNCT:
                    if init[m].text == "(":
                        depth += 1
                    elif init[m].text == ")":
                        depth -= 1
                        if depth == 0:
                            close = m
                            break
            if close == len(init) - 1:
                base = init[:j]
                if not fa.root_is_local(base):
                    return "iterator", _repr_expr(base)
            return None, ""
    # Reference / pointer element bindings: `&` declarator, or an address-of
    # initializer.  A `*` declarator WITHOUT `&init` copies the element (a
    # pointer value) and cannot dangle when the container mutates.
    is_ref_decl = name_idx >= 1 and toks[name_idx - 1].kind == PUNCT \
        and toks[name_idx - 1].text == "&"
    addr_of = init[0].kind == PUNCT and init[0].text == "&"
    if not (is_ref_decl or addr_of):
        return None, ""
    body = init[1:] if addr_of else init
    if not body:
        return None, ""
    # Element access forms: X[..], X.front()/back()/at(..), *it, it->...
    if body[0].kind == PUNCT and body[0].text == "*" and len(body) > 1:
        if body[1].kind == IDENT and body[1].text in iterator_vars:
            return "element-ref", iterator_vars[body[1].text]
        # `T& r = *container[i]` dereferences the ELEMENT (a pointer): the
        # ref binds the pointee, whose storage doesn't move with the
        # container.
        return None, ""
    if body[0].kind == IDENT and body[0].text in iterator_vars:
        return "element-ref", iterator_vars[body[0].text]
    for j in range(len(body) - 1):
        if body[j].kind == PUNCT and body[j].text == "[":
            base = body[:j]
            if base and not fa.root_is_local(base):
                return "element-ref", _repr_expr(base)
            return None, ""
        if body[j].kind == PUNCT and body[j].text in (".", "->") \
                and j + 1 < len(body) and body[j + 1].kind == IDENT \
                and body[j + 1].text in ELEMENT_METHODS:
            base = body[:j]
            if base and not fa.root_is_local(base):
                return "element-ref", _repr_expr(base)
            return None, ""
    return None, ""


def _a1_taint_interior_pointer_vectors(fa: FunctionAnalysis) -> None:
    """Mark locals that collect `&element` pointers into non-local containers
    (`keys.push_back(&k)` where `k` ranges over a member container): a later
    range-for over the tainted local that suspends is as dangerous as
    iterating the original container."""
    toks = fa.tokens
    # First: loop variables of range-fors over non-local containers alias.
    loop_aliases: Set[str] = set()
    k = fa.start
    while k < fa.end:
        t = toks[k]
        if t.kind == IDENT and t.text == "for" and k + 1 < fa.end \
                and toks[k + 1].kind == PUNCT and toks[k + 1].text == "(":
            close = scopes.match_paren(toks, k + 1)
            colon = _range_for_colon(toks, k + 1, close)
            if colon is not None:
                expr = toks[colon + 1 : close]
                decl = toks[k + 2 : colon]
                by_ref = any(d.kind == PUNCT and d.text in ("&", "*") for d in decl)
                if by_ref and expr and not fa.root_is_local(expr):
                    for d in reversed(decl):
                        if d.kind == IDENT:
                            loop_aliases.add(d.text)
                            break
        k += 1
    # Second: pushes of addresses of those aliases (or of non-local exprs).
    k = fa.start
    while k < fa.end - 5:
        t = toks[k]
        if t.kind == IDENT and k + 4 < fa.end \
                and toks[k + 1].kind == PUNCT and toks[k + 1].text == "." \
                and toks[k + 2].kind == IDENT \
                and toks[k + 2].text in ("push_back", "emplace_back") \
                and toks[k + 3].kind == PUNCT and toks[k + 3].text == "(" \
                and toks[k + 4].kind == PUNCT and toks[k + 4].text == "&":
            arg_start = k + 5
            close = scopes.match_paren(toks, k + 3)
            arg = toks[arg_start:close]
            if arg and arg[0].kind == IDENT:
                root = arg[0].text
                if root in loop_aliases or not fa.root_is_local(arg):
                    fa.tainted.add(t.text)
        k += 1


# --------------------------------------------------------------------------
# A2: deferred-event and coroutine lambda captures without a lifetime guard.
# --------------------------------------------------------------------------

def check_a2(lf: lexer.LexedFile, functions: List[scopes.FunctionBody],
             path: str) -> List[Finding]:
    out: List[Finding] = []
    seen: Set[int] = set()
    for fb in functions:
        for lam in fb.lambdas:
            if lam.body_start in seen:
                continue
            seen.add(lam.body_start)
            if lam.enclosing_call in DEFERRAL_CALLS and \
                    (lam.has_this_capture or lam.has_ref_capture):
                bad = "this" if lam.has_this_capture else "&"
                out.append(Finding(
                    path, lam.line, "A2", "A2.deferred-capture",
                    f"lambda deferred via {lam.enclosing_call}() captures "
                    f"`{bad}`: the event outlives this frame (and possibly "
                    "this object — crash schedules destroy components before "
                    "their timers fire). Capture a shared_ptr guard or plain "
                    "values instead.",
                    function=fb.name, symbol=f"{lam.enclosing_call}@{lam.line}"))
            elif lam.is_coroutine and lam.has_ref_capture:
                out.append(Finding(
                    path, lam.line, "A2", "A2.coro-ref-capture",
                    "coroutine lambda captures by reference: captures live in "
                    "the lambda OBJECT, not the coroutine frame, and by-ref "
                    "captures of stack locals dangle if the task outlives the "
                    "enclosing scope. Pass state as explicit coroutine "
                    "parameters instead (see sim/task.h conventions).",
                    function=fb.name, symbol=f"coro-lambda@{lam.line}"))
            elif lam.is_coroutine and lam.immediately_invoked and lam.captures:
                out.append(Finding(
                    path, lam.line, "A2", "A2.coro-capture-invoked",
                    "immediately-invoked coroutine lambda with captures: the "
                    "temporary lambda object (which owns the captures) dies "
                    "at the end of this full-expression, while the coroutine "
                    "may still be suspended — every later capture access is a "
                    "use-after-free. Pass state as explicit parameters.",
                    function=fb.name, symbol=f"coro-lambda@{lam.line}"))
    return out


# --------------------------------------------------------------------------
# A3: nondeterminism escapes — address-ordered keys, pointer->int, float
# accumulation over container iteration.
# --------------------------------------------------------------------------

def check_a3(lf: lexer.LexedFile, functions: List[scopes.FunctionBody],
             path: str) -> List[Finding]:
    out: List[Finding] = []
    toks = lf.tokens
    # Pointer-keyed ordered containers (and type_index, whose libstdc++
    # ordering compares type_info name POINTERS — address order in disguise).
    for k in range(len(toks) - 1):
        t = toks[k]
        if t.kind == IDENT and t.text in ORDERED_CONTAINERS \
                and toks[k + 1].kind == PUNCT and toks[k + 1].text == "<":
            key_toks = _first_template_arg(toks, k + 1)
            key = "".join(x.text for x in key_toks)
            bad = None
            if any(x.kind == PUNCT and x.text == "*" for x in key_toks):
                bad = "a pointer"
            elif any(x.kind == IDENT and x.text == "type_index" for x in key_toks):
                bad = "std::type_index (compares type_info name pointers)"
            if bad:
                out.append(Finding(
                    path, t.line, "A3", "A3.pointer-key",
                    f"ordered container keyed on {bad}: iteration order "
                    f"follows allocation addresses (`{key}`), which vary "
                    "across runs/ASLR — any iteration or ordered dump breaks "
                    "same-seed replay. Key on a stable id instead.",
                    function="", symbol=f"{t.text}<{key}>"))
    # Pointer laundered into an integer.
    for k in range(len(toks) - 2):
        t = toks[k]
        if t.kind == IDENT and t.text == "reinterpret_cast" \
                and toks[k + 1].kind == PUNCT and toks[k + 1].text == "<":
            arg = _first_template_arg(toks, k + 1, stop_at_comma=False)
            has_ptr = any(x.kind == PUNCT and x.text == "*" for x in arg)
            is_int = any(x.kind == IDENT and x.text in PTRINT_TYPES for x in arg)
            if is_int and not has_ptr:
                out.append(Finding(
                    path, t.line, "A3", "A3.pointer-to-int",
                    "reinterpret_cast of a pointer to an integer: the value "
                    "is an address, which differs across runs — using it in "
                    "hashes, ordering, or digests breaks same-seed replay.",
                    function="", symbol=f"reinterpret@{t.line}"))
    # Float accumulation across loop iteration.
    for fb in functions:
        out += _a3_float_accumulation(lf, fb, path)
    return out


def _first_template_arg(tokens: List[Token], open_angle: int,
                        stop_at_comma: bool = True) -> List[Token]:
    depth = 0
    out: List[Token] = []
    for k in range(open_angle, min(open_angle + 64, len(tokens))):
        t = tokens[k]
        if t.kind == PUNCT:
            if t.text in ("<", "(", "["):
                depth += 1
                if t.text == "<" and depth == 1:
                    continue
            elif t.text in (">", ")", "]"):
                depth -= 1
                if depth == 0:
                    return out
            elif t.text == "," and depth == 1 and stop_at_comma:
                return out
        out.append(t)
    return out


def _a3_float_accumulation(lf: lexer.LexedFile, fb: scopes.FunctionBody,
                           path: str) -> List[Finding]:
    toks = lf.tokens
    # Names declared float/double in this body.
    float_vars: Set[str] = set()
    k = fb.body_start
    while k < fb.body_end - 1:
        t = toks[k]
        if t.kind == IDENT and t.text in FLOAT_TYPES \
                and toks[k + 1].kind == IDENT:
            # Declarator list: double a = 0, b = 0;
            j = k + 1
            depth = 0
            expect_name = True
            while j < fb.body_end:
                tj = toks[j]
                if tj.kind == IDENT and expect_name:
                    float_vars.add(tj.text)
                    expect_name = False
                elif tj.kind == PUNCT:
                    if tj.text in ("(", "[", "{"):
                        depth += 1
                    elif tj.text in (")", "]", "}"):
                        if depth == 0:
                            break
                        depth -= 1
                    elif tj.text == "," and depth == 0:
                        expect_name = True
                    elif tj.text == ";" and depth == 0:
                        break
                j += 1
        k += 1
    if not float_vars:
        return []
    out: List[Finding] = []
    reported: Set[str] = set()
    for body_start, body_end in _loop_bodies(toks, fb.body_start, fb.body_end):
        for k in range(body_start, body_end - 1):
            t = toks[k]
            if t.kind == IDENT and t.text in float_vars \
                    and toks[k + 1].kind == PUNCT \
                    and toks[k + 1].text in ("+=", "-=") \
                    and t.text not in reported:
                reported.add(t.text)
                out.append(Finding(
                    path, t.line, "A3", "A3.float-accumulation",
                    f"floating-point accumulation into `{t.text}` across "
                    "loop iteration: FP addition is order-sensitive and "
                    "rounds differently across toolchains/FPUs, so decisions "
                    "made from the sum diverge between platforms. Accumulate "
                    "in integers (fixed-point) and compare exactly.",
                    function=fb.name, symbol=t.text))
    return out


def _loop_bodies(tokens: List[Token], start: int, end: int):
    """(body_start, body_end) of every for/while/do loop body in range."""
    k = start
    while k < end:
        t = tokens[k]
        if t.kind == IDENT and t.text in ("for", "while") and k + 1 < end \
                and tokens[k + 1].kind == PUNCT and tokens[k + 1].text == "(":
            close = scopes.match_paren(tokens, k + 1)
            body_start = close + 1
            if body_start < end and tokens[body_start].kind == PUNCT \
                    and tokens[body_start].text == "{":
                yield body_start, scopes.match_brace(tokens, body_start)
            else:
                _, semi = _expr_until(tokens, body_start, end, (";",))
                yield body_start, semi
        elif t.kind == IDENT and t.text == "do" and k + 1 < end \
                and tokens[k + 1].kind == PUNCT and tokens[k + 1].text == "{":
            yield k + 1, scopes.match_brace(tokens, k + 1)
        k += 1


# --------------------------------------------------------------------------
# A4: Status/Result discards the [[nodiscard]] + -Werror net cannot catch.
# --------------------------------------------------------------------------

def collect_status_functions(lf: lexer.LexedFile) -> Set[str]:
    """Names of functions declared to return Status or Result<...> in this
    file (the engine unions the per-file sets across the tree)."""
    toks = lf.tokens
    names: Set[str] = set()
    for k in range(len(toks) - 2):
        t = toks[k]
        if t.kind != IDENT or t.text not in ("Status", "Result"):
            continue
        j = k + 1
        if t.text == "Result":
            if not (toks[j].kind == PUNCT and toks[j].text == "<"):
                continue
            depth = 0
            while j < len(toks):
                if toks[j].kind == PUNCT and toks[j].text == "<":
                    depth += 1
                elif toks[j].kind == PUNCT and toks[j].text == ">":
                    depth -= 1
                    if depth == 0:
                        j += 1
                        break
                j += 1
        if j + 1 < len(toks) and toks[j].kind == IDENT \
                and toks[j + 1].kind == PUNCT and toks[j + 1].text == "(":
            # Method definitions: Class::Name( — the preceding `::` does not
            # change the callable name we record.
            names.add(toks[j].text)
    return names


def check_a4(lf: lexer.LexedFile, functions: List[scopes.FunctionBody],
             path: str, status_fns: Set[str]) -> List[Finding]:
    out: List[Finding] = []
    toks = lf.tokens
    for fb in functions:
        if fb.is_lambda:
            continue
        fa = FunctionAnalysis(lf, fb)
        out += _a4_dead_status_locals(fa, path)
        out += _a4_laundered(fa, path, status_fns)
    return out


def _a4_dead_status_locals(fa: FunctionAnalysis, path: str) -> List[Finding]:
    """`Status st = <fallible>;` never read afterwards: -Wunused-but-set
    skips class types, so the compiler is silent and the error vanishes."""
    out: List[Finding] = []
    toks = fa.tokens
    k = fa.start
    while k < fa.end - 2:
        t = toks[k]
        if t.kind == IDENT and t.text == "Status" \
                and toks[k + 1].kind == IDENT \
                and toks[k + 2].kind == PUNCT and toks[k + 2].text == "=":
            prev = toks[k - 1]
            if prev.kind == PUNCT and prev.text in (".", "->", "::", "<", "("):
                k += 1
                continue  # qualified type use / template arg / param, not a decl
            name = toks[k + 1].text
            _, semi = _expr_until(toks, k + 3, fa.end, (";",))
            live_end = fa.scope_end(k + 1)
            used = any(toks[u].kind == IDENT and toks[u].text == name
                       for u in range(semi + 1, live_end))
            if not used:
                out.append(Finding(
                    path, t.line, "A4", "A4.dead-status",
                    f"`Status {name}` is assigned but never read: the error "
                    "is silently dropped, and -Wunused-but-set-variable does "
                    "not fire for class types. Check it, return it, or make "
                    "the discard explicit with (void).",
                    function=fa.fb.name, symbol=name))
        k += 1
    return out


def _a4_laundered(fa: FunctionAnalysis, path: str,
                  status_fns: Set[str]) -> List[Finding]:
    """Expression-statement ternaries and comma operators that discard a
    Status-returning call: [[nodiscard]] only fires on the full expression,
    and both launderings defeat it."""
    out: List[Finding] = []
    toks = fa.tokens
    for stmt_start, stmt_end in _statements(toks, fa.start, fa.end):
        stmt = toks[stmt_start:stmt_end]
        if not stmt:
            continue
        first = stmt[0]
        # Skip declarations / control flow / returns / assignments.
        if first.kind == IDENT and first.text in (
                "return", "co_return", "if", "for", "while", "switch", "do",
                "else", "case", "break", "continue", "auto", "const",
                "static", "using", "delete", "throw"):
            continue
        has_assign = any(x.kind == PUNCT and x.text == "=" for x in stmt)
        calls_status = _calls_status_fn(stmt, status_fns)
        if not calls_status or has_assign:
            continue
        # Explicit discards are sanctioned.
        text = "".join(x.text for x in stmt[:6])
        if text.startswith("(void)") or text.startswith("static_cast<void>"):
            continue
        depth = 0
        ternary = comma = False
        for x in stmt:
            if x.kind == PUNCT:
                if x.text in ("(", "[", "{"):
                    depth += 1
                elif x.text in (")", "]", "}"):
                    depth -= 1
                elif x.text == "?" and depth == 0:
                    ternary = True
                elif x.text == "," and depth == 0:
                    comma = True
        if ternary or comma:
            via = "ternary" if ternary else "comma operator"
            out.append(Finding(
                path, first.line, "A4", "A4.laundered-discard",
                f"Status-returning call discarded through a {via}: "
                "[[nodiscard]] applies to the full expression, so the "
                "compiler stays silent. Assign the result and check it, or "
                "discard each branch explicitly with (void).",
                function=fa.fb.name, symbol=f"stmt@{first.line}"))
    return out


def _statements(tokens: List[Token], start: int, end: int):
    """Top-level-ish statement ranges: token runs split on `;` at paren
    depth 0 (brace-nested blocks are traversed, their statements included)."""
    k = start + 1
    stmt_start = k
    depth = 0
    while k < end:
        t = tokens[k]
        if t.kind == PUNCT:
            if t.text in ("(", "["):
                depth += 1
            elif t.text in (")", "]"):
                depth = max(0, depth - 1)
            elif t.text in ("{", "}"):
                stmt_start = k + 1
            elif t.text == ";" and depth == 0:
                yield stmt_start, k
                stmt_start = k + 1
        k += 1


def _calls_status_fn(stmt: List[Token], status_fns: Set[str]) -> bool:
    for k in range(len(stmt) - 1):
        if stmt[k].kind == IDENT and stmt[k].text in status_fns \
                and stmt[k + 1].kind == PUNCT and stmt[k + 1].text == "(":
            return True
    return False


# --------------------------------------------------------------------------
# A5: a braced request temporary with a non-trivially-destructible member
# written inside a co_await full-expression.
# --------------------------------------------------------------------------

HEAVY_MEMBER_TYPES = {"string", "vector", "Buffer", "map"}


def collect_heavy_structs(lf: lexer.LexedFile) -> Dict[str, Set[str]]:
    """struct name -> identifiers in the types of its data members, for
    every struct defined in this file."""
    toks = lf.tokens
    out: Dict[str, Set[str]] = {}
    k = 0
    while k < len(toks) - 2:
        if not (toks[k].kind == IDENT and toks[k].text == "struct"
                and toks[k + 1].kind == IDENT
                and toks[k + 2].kind == PUNCT and toks[k + 2].text == "{"):
            k += 1
            continue
        name, open_idx = toks[k + 1].text, k + 2
        close = scopes.match_brace(toks, open_idx) - 1
        members: Set[str] = set()
        decl: List[Token] = []
        depth = 0
        for t in toks[open_idx + 1:close]:
            if t.kind == PUNCT and t.text == "{":
                depth += 1
            elif t.kind == PUNCT and t.text == "}":
                depth -= 1
                if depth == 0:
                    decl = []  # an inline method body ends its declaration
                continue
            if depth > 0:
                continue
            if t.kind == PUNCT and t.text == ";":
                # Data members only: no parameter list, no static constant.
                texts = [x.text for x in decl]
                if "(" not in texts and "static" not in texts:
                    stop = texts.index("=") if "=" in texts else len(texts)
                    members |= {x.text for x in decl[:stop] if x.kind == IDENT}
                decl = []
            else:
                decl.append(t)
        out[name] = members
        k = close + 1
    return out


def heavy_request_names(structs: Dict[str, Set[str]]) -> Set[str]:
    """`...Req` structs owning a string, vector, Buffer or map, directly or
    through a member whose struct (from the same table) owns one."""
    heavy = {n for n, m in structs.items() if m & HEAVY_MEMBER_TYPES}
    grew = True
    while grew:
        grew = False
        for n, m in structs.items():
            if n not in heavy and m & heavy:
                heavy.add(n)
                grew = True
    return {n for n in heavy if n.endswith("Req")}


def _full_expression(tokens: List[Token], idx: int, start: int,
                     end: int) -> Tuple[int, int]:
    """[first, last) token range of the statement holding tokens[idx]. A
    bracket group inside it (call arguments, a braced temporary, a lambda)
    belongs to it; `;` or a block brace outside every group ends it. A `}`
    followed by an identifier closed a block, not a braced temporary."""
    depth, first = 0, start + 1
    for k in range(idx - 1, start, -1):
        t = tokens[k]
        if t.kind != PUNCT:
            continue
        block_end = t.text == "}" and tokens[k + 1].kind == IDENT
        if depth == 0 and (t.text in (";", "{") or block_end):
            first = k + 1
            break
        if t.text in (")", "]", "}"):
            depth += 1
        elif t.text in ("(", "[", "{"):
            depth = max(0, depth - 1)  # below 0: an enclosing call's `(`
    depth, last = 0, end
    for k in range(idx + 1, end):
        t = tokens[k]
        if t.kind != PUNCT:
            continue
        if depth <= 0 and t.text in (";", "{", "}"):
            last = k
            break
        if t.text in ("(", "[", "{"):
            depth += 1
        elif t.text in (")", "]", "}"):
            depth -= 1
    return first, last


def check_a5(lf: lexer.LexedFile, functions: List[scopes.FunctionBody],
             path: str, heavy_reqs: Set[str]) -> List[Finding]:
    out: List[Finding] = []
    toks = lf.tokens
    for fb in functions:
        for k in range(fb.body_start + 1, fb.body_end - 1):
            if not (toks[k].kind == IDENT and toks[k].text == "co_await"):
                continue
            first, last = _full_expression(toks, k, fb.body_start, fb.body_end - 1)
            for j in range(first, last - 1):
                t, nxt = toks[j], toks[j + 1]
                if t.kind == IDENT and t.text in heavy_reqs \
                        and nxt.kind == PUNCT and nxt.text == "{":
                    out.append(Finding(
                        path, t.line, "A5", "A5.braced-request-in-co_await",
                        f"braced `{t.text}{{...}}` temporary inside a co_await "
                        "full-expression: its struct owns a string, vector, "
                        "Buffer or map, and gcc 12 has destroyed such "
                        "temporaries twice (see sim/network.h Network::Call). "
                        "Build the request as a named local and std::move it "
                        "into the call.",
                        function=fb.name, symbol=f"{t.text}@{t.line}"))
    return out
