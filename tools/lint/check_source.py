#!/usr/bin/env python3
"""Project-specific source lint for the ppclust tree.

Enforces five repo rules that neither the compiler nor clang-tidy can
express, by scanning source text (with comments and string literals
stripped where a rule is about *code*):

  R1  lock-primitives
      No raw ``std::mutex`` / ``std::condition_variable`` /
      ``std::lock_guard`` / ``std::unique_lock`` / ``std::scoped_lock``
      (or their headers) anywhere under ``src/`` or ``tools/`` except
      ``src/common/thread_annotations.h``. Everything locks through the
      annotated ``ppc::Mutex`` / ``ppc::MutexLock`` / ``ppc::CondVar``
      wrappers so Clang's thread-safety analysis sees every acquisition.
      (Tests may use raw primitives — they build without -Werror and
      often need bare condvars for test scaffolding.)

  R2  receive-on-reactor
      No ``Receive(`` / ``ReceiveOn(`` calls at all — with or without a
      cancel token — in files whose code runs on the EventLoop thread
      (``src/net/event_loop.*`` and ``src/net/tcp_network.cc``). A
      blocking receive on the reactor would stall every connection's
      inbound I/O at once; inbound frames must flow through the
      nonblocking ``Deliver`` path instead.

  R3  topic-literals
      Wire-protocol topic strings appear as literals only in
      ``src/core/topics.h``; all other code names them through the
      ``ppc::topics::k*`` constants. A typo'd literal would fail at
      runtime as a kProtocolViolation on some peer; spelled through the
      constants it fails at compile time.

  R4  cancel-guarded-receive
      Outside the transport layer (``src/net/``), every ``Receive(`` /
      ``ReceiveOn(`` call names its cancel token: it passes all of
      ``Receive(to, from, topic, cancel)`` /
      ``ReceiveOn(session, to, from, topic, cancel)``, never leaning on
      the defaulted trailing arguments, so every blocking receive
      consults the session's cancel token. A receive without one is a
      wait that ``CancelSession`` / an armed deadline cannot unwedge —
      exactly the hang the cancellation machinery exists to prevent. A
      site with no cancellation source passes an explicit null token;
      that spelling is the audit trail.

  R5  network-surface
      ``src/net/network.h`` declares at most ``NETWORK_VIRTUALS_MAX``
      virtual member functions besides the destructor: the session-keyed
      core. Convenience spellings belong in non-virtual helpers on
      ``Network``; a new virtual must replace one, so the surface every
      backend and wrapper implements cannot creep back up.

Usage:
  check_source.py [--root DIR]     lint DIR (default: repo root) and
                                   print one "file:line: [rule] ..." per
                                   violation; exit 1 iff any.
  check_source.py --selftest       run the checker against the bundled
                                   pass/fail fixture trees in testdata/.
"""

import argparse
import pathlib
import re
import sys

# R1: raw lock primitives (the annotated wrappers exist precisely so the
# thread-safety analysis sees every lock).
LOCK_PRIMITIVES = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|shared_mutex|"
    r"condition_variable(_any)?|lock_guard|unique_lock|scoped_lock)\b"
    r"|#\s*include\s*<(mutex|condition_variable|shared_mutex)>"
)
LOCK_PRIMITIVES_EXEMPT = {"src/common/thread_annotations.h"}

# R2: blocking receives must stay off the reactor thread.
RECEIVE_CALL = re.compile(r"\bReceive(On)?\s*\(")
REACTOR_FILES = re.compile(r"src/net/(event_loop\.(h|cc)|tcp_network\.cc)$")

# R4: outside the transport layer, every receive passes its cancel token,
# the last argument: Receive(to, from, topic, cancel) and
# ReceiveOn(session, to, from, topic, cancel).
CANCELLABLE_EXEMPT_PREFIX = "src/net/"
RECEIVE_ARITY = {"Receive": 4, "ReceiveOn": 5}

# R5: the Network core's size (see src/net/network.h).
NETWORK_HEADER = "src/net/network.h"
NETWORK_VIRTUALS_MAX = 12
VIRTUAL_MEMBER = re.compile(r"\bvirtual\s+(?!~)")

# R3: the topic vocabulary, mirrored from src/core/topics.h. Kept as a
# literal list (not parsed from the header) so renaming a topic without
# updating this list trips the lint and forces both edits to land
# together.
TOPIC_LITERALS = re.compile(
    r'"(session\.(hello|roster)'
    r"|keys\.(dh_public|categorical)"
    r"|matrix\.local"
    r"|numeric\.(masked_vector|comparison_matrix)"
    r"|alphanumeric\.(masked_strings|masked_grids)"
    r"|categorical\.tokens"
    r"|cluster\.(request|outcome)"
    r'|ctl\.(outcome|job|error))"'
)
TOPICS_HEADER = "src/core/topics.h"

SOURCE_GLOBS = ("src/**/*.h", "src/**/*.cc", "tools/**/*.h", "tools/**/*.cc")


def strip_comments_and_strings(text, keep_strings=False):
    """Removes // and /* */ comments; optionally blanks string literals.

    Line structure is preserved (newlines survive) so reported line
    numbers match the original file. Not a full lexer — raw strings and
    digraphs are out of scope for the patterns this lint searches — but
    it handles quotes inside comments and comment markers inside quotes,
    which is what the tree actually contains.
    """
    out = []
    i, n = 0, len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                i += 2
                continue
            if c == '"':
                mode = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append(c)
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                i += 2
                continue
            if c == "\n":
                out.append(c)
        elif mode in ("string", "char"):
            quote = '"' if mode == "string" else "'"
            if c == "\\":
                out.append("\\x" if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                mode = "code"
                out.append(c)
            elif c == "\n":  # Unterminated; bail back to code.
                mode = "code"
                out.append(c)
            else:
                out.append(c if keep_strings else " ")
        i += 1
    return "".join(out)


def call_arguments(code, open_paren):
    """Counts the top-level arguments of the call whose "(" is at
    `open_paren` in comment- and string-stripped `code`."""
    depth, commas = 0, 0
    for i in range(open_paren, len(code)):
        c = code[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
            if depth == 0:
                return commas + 1 if code[open_paren + 1:i].strip() else 0
        elif c == "," and depth == 1:
            commas += 1
    return commas + 1  # Unterminated: count what is there.


def lint_file(rel, text):
    """Yields (line, rule, message) violations for one file."""
    rel_posix = pathlib.PurePosixPath(rel).as_posix()

    code_only = strip_comments_and_strings(text, keep_strings=False)
    with_strings = strip_comments_and_strings(text, keep_strings=True)

    if rel_posix not in LOCK_PRIMITIVES_EXEMPT:
        for lineno, line in enumerate(code_only.splitlines(), 1):
            match = LOCK_PRIMITIVES.search(line)
            if match:
                yield (
                    lineno,
                    "lock-primitives",
                    f"raw '{match.group(0).strip()}' — use ppc::Mutex / "
                    "ppc::MutexLock / ppc::CondVar from "
                    "common/thread_annotations.h so the thread-safety "
                    "analysis sees the lock",
                )

    if REACTOR_FILES.search(rel_posix):
        for lineno, line in enumerate(code_only.splitlines(), 1):
            if RECEIVE_CALL.search(line):
                yield (
                    lineno,
                    "receive-on-reactor",
                    "blocking Receive/ReceiveOn in EventLoop-thread code "
                    "would stall every connection's inbound I/O",
                )
    elif not rel_posix.startswith(CANCELLABLE_EXEMPT_PREFIX):
        for match in RECEIVE_CALL.finditer(code_only):
            name = "ReceiveOn" if match.group(1) else "Receive"
            if call_arguments(code_only, match.end() - 1) < RECEIVE_ARITY[name]:
                yield (
                    code_only.count("\n", 0, match.start()) + 1,
                    "cancel-guarded-receive",
                    f"{name} outside src/net/ without a cancel token — "
                    "pass the session's token as the last argument (an "
                    "explicit nullptr if the site truly has no "
                    "cancellation source) so CancelSession and armed "
                    "deadlines can unwedge the wait",
                )

    if rel_posix == NETWORK_HEADER:
        virtuals = list(VIRTUAL_MEMBER.finditer(code_only))
        for match in virtuals[NETWORK_VIRTUALS_MAX:]:
            yield (
                code_only.count("\n", 0, match.start()) + 1,
                "network-surface",
                f"Network declares {len(virtuals)} virtual member "
                f"functions, above the core's {NETWORK_VIRTUALS_MAX} — add "
                "a non-virtual helper over the core instead",
            )

    if rel_posix != TOPICS_HEADER:
        for lineno, line in enumerate(with_strings.splitlines(), 1):
            match = TOPIC_LITERALS.search(line)
            if match:
                yield (
                    lineno,
                    "topic-literals",
                    f"topic literal {match.group(0)} — use the "
                    "ppc::topics constant from core/topics.h",
                )


def lint_tree(root):
    violations = []
    for pattern in SOURCE_GLOBS:
        for path in sorted(root.glob(pattern)):
            rel = path.relative_to(root).as_posix()
            # The lint's own fixtures violate the rules on purpose.
            if rel.startswith("tools/lint/testdata/"):
                continue
            try:
                text = path.read_text(encoding="utf-8")
            except (UnicodeDecodeError, OSError) as error:
                violations.append((rel, 0, "io", f"unreadable: {error}"))
                continue
            for lineno, rule, message in lint_file(rel, text):
                violations.append((rel, lineno, rule, message))
    return violations


def selftest():
    """Checks the bundled fixtures: every fail-fixture rule must fire on
    its marked lines and nothing may fire on the pass fixtures."""
    here = pathlib.Path(__file__).resolve().parent
    failures = []

    fail_root = here / "testdata" / "root_fail"
    got = {(rel, lineno, rule) for rel, lineno, rule in (
        (v[0], v[1], v[2]) for v in lint_tree(fail_root))}
    # Expectations are embedded in the fixtures: a line comment
    # `EXPECT-LINT: <rule>` names the rule that must fire on that line.
    expected = set()
    for pattern in SOURCE_GLOBS:
        for path in sorted(fail_root.glob(pattern)):
            rel = path.relative_to(fail_root).as_posix()
            for lineno, line in enumerate(
                    path.read_text(encoding="utf-8").splitlines(), 1):
                marker = re.search(r"EXPECT-LINT:\s*([a-z-]+)", line)
                if marker:
                    expected.add((rel, lineno, marker.group(1)))
    for item in sorted(expected - got):
        failures.append(f"expected violation did not fire: {item}")
    for item in sorted(got - expected):
        failures.append(f"unexpected violation: {item}")

    pass_root = here / "testdata" / "root_pass"
    for violation in lint_tree(pass_root):
        failures.append(f"violation in pass fixture: {violation}")

    if failures:
        for failure in failures:
            print(f"selftest: {failure}", file=sys.stderr)
        return 1
    print(f"selftest: ok ({len(expected)} expected violations fired, "
          "pass fixtures clean)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[2],
        help="tree to lint (default: the repo root)")
    parser.add_argument(
        "--selftest", action="store_true",
        help="lint the bundled testdata fixtures instead of --root")
    options = parser.parse_args()

    if options.selftest:
        return selftest()

    violations = lint_tree(options.root)
    for rel, lineno, rule, message in violations:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if violations:
        print(f"{len(violations)} lint violation(s)", file=sys.stderr)
        return 1
    print("lint: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
