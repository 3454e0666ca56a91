//! Token-level repo-invariant lints for the WATCHMAN workspace.
//!
//! The type system cannot see every rule this repo lives by: "route all
//! locking through `watchman_core::sync`" compiles fine when violated,
//! "every `PolicyKind` can be built" compiles fine when a variant is never
//! constructed, and the wire-protocol size caps are plain constants someone
//! can fork.
//! This crate enforces those invariants as a CI gate.
//!
//! It is deliberately **not** built on `syn` or rustc internals: the
//! container this repo builds in is offline, and the rules only need token
//! streams, not types.  [`lex`] strips comments, strings, char literals and
//! lifetimes and yields `(identifier | literal | punctuation)` tokens with
//! line numbers; the rules in [`analyze`] pattern-match those streams.
//!
//! The rules:
//!
//! 1. **`raw-sync-primitive`** — no `std::sync::{Mutex, RwLock, Condvar}`
//!    outside `crates/core/src/sync.rs`.  Raw primitives bypass the
//!    poison-recovery policy and the `lock-graph` deadlock instrumentation.
//!    (`Arc`, atomics, `Once*` and `Barrier` are fine: they carry no
//!    lock-ordering obligations.)
//! 2. **`lock-result-unwrap`** — no `.lock().unwrap()` / `.read().expect()`
//!    etc. in `crates/server/src`: one panicked session must not cascade
//!    poison panics across every other session sharing the map.  The sync
//!    layer's poison-transparent guards make the unwrap unnecessary.
//! 3. **`block-on-in-poll`** — no `block_on` inside a `poll*` body: a
//!    nested `block_on` on a runtime worker parks the worker's OS thread,
//!    and with one worker per core a handful of such tasks deadlock the
//!    whole runtime.
//! 4. **`policy-dispatch-coverage`** — every variant of `enum PolicyKind`
//!    must appear in a `PolicyKind::Variant` dispatch path: a variant nobody
//!    constructs is an unreachable policy.  That every policy defines the
//!    signal methods the engine's replacement, rebalance and failure loops
//!    drive is rustc's to check: none of them has a default in
//!    `QueryCache`.
//! 5. **`frame-size-consistency`** — the wire-protocol size caps
//!    (`MAX_FRAME_BYTES`, `MAX_PREFIX_BYTES`, `MAX_RESULT_BYTES`) must be
//!    declared exactly once, in their home files, and must satisfy
//!    `MAX_PREFIX_BYTES < MAX_FRAME_BYTES <= MAX_RESULT_BYTES` — the
//!    relationships `server.rs` relies on when it clamps payload prefixes.
//! 6. **`blocking-net-in-session`** — no `std::net::TcpStream` /
//!    `std::net::TcpListener` and no `set_read_timeout`-style socket
//!    polling in the server crate's session paths.  Sessions are tasks on
//!    the IO reactor: one blocking read parks a whole worker thread, and a
//!    read-timeout poll loop is the 25 ms idle tick this refactor deleted.
//!    The blocking `Client` (`client.rs`), the load drivers that hold such
//!    clients on dedicated threads (`replay.rs` — a read deadline there is
//!    chaos stall detection, not an idle tick) and the CLI binaries under
//!    `src/bin/` are the deliberate exceptions; `std::net::SocketAddr` and
//!    friends carry no blocking IO and stay legal everywhere.
//! 7. **`unbuffered-frame-write-in-session`** — no `write_frame` in the
//!    server crate's session paths.  That helper issues one write syscall
//!    per frame; the session loop stages responses into a
//!    `wire::FrameWriter` and flushes the whole burst as one vectored
//!    write, which is where the pipelined-throughput win lives — a single
//!    per-frame write sneaking back in silently undoes it.  `wire.rs` (the helper's home), the lockstep clients
//!    (`client.rs`, `replay.rs` — one request in flight, nothing to
//!    coalesce) and the CLI binaries under `src/bin/` are exempt.
//! 8. **`fallible-unwrap-in-session`** — no `.unwrap()` / `.expect()` on
//!    the fallible fetch/IO calls (`read_frame*`, `write_frame*`,
//!    `next_frame`, `flush`, `read_exact`, `write_all`, `connect*`,
//!    `accept`, `try_get_or_execute*`, `stage`) in the server crate's
//!    session paths.  The failure-domain engineering routes every fetch/IO
//!    error into the retry → stale-serve → shed pipeline; an unwrap turns a
//!    recoverable fault into a dead session.  The CLI binaries under
//!    `src/bin/` (where a crash *is* the error report) and inline
//!    `mod tests` peers are exempt.
//! 9. **`unbounded-retry-loop`** — no `loop { … connect … }` without a
//!    visible retry budget (`attempt`/`attempts`/`budget`/`retries`/
//!    `deadline` or a `max_*` bound) in the server crate.  A reconnect loop
//!    with no bound turns one dead server into a client spinning forever;
//!    bounded attempts with capped backoff are the `RetryPolicy` contract.
//! 10. **`raw-instant-timing`** — no raw `Instant::now()` in the engine
//!     (`crates/core/src/engine/`) or the server crate's session paths.
//!     `watchman_core::telemetry::now()` is the clock authority for those
//!     paths: it pins the histogram epoch, and a raw `Instant::now()` is
//!     latency measurement (or a deadline) the telemetry layer never sees —
//!     an unobservable stall.  `telemetry.rs` itself (the authority's home),
//!     the blocking client/load drivers (`client.rs`, `replay.rs`), the CLI
//!     binaries under `src/bin/` and inline `mod tests` are exempt.
//!
//! Seeded-violation fixtures live in `fixtures/`; the crate's tests assert
//! each rule fires on its fixture and stays quiet on counter-examples, so a
//! lexer regression cannot silently turn the gate off.

use std::collections::HashMap;

/// What a token is, as far as the rules care.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric, string, byte or char literal (strings keep no content).
    Literal,
    /// A single punctuation character (`::` is two `:` tokens).
    Punct,
}

/// One lexed token with its source line.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token's kind.
    pub kind: TokenKind,
    /// The token's text (empty for string literals).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
}

impl Token {
    fn is_ident(&self, text: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == text
    }

    fn is_punct(&self, ch: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(ch)
    }
}

/// Lexes Rust source into a token stream, stripping comments (line, block,
/// nested block), string literals (plain, raw, byte), char literals and
/// lifetimes.  Numeric literals keep their text so constant expressions can
/// be evaluated; string literals become empty [`TokenKind::Literal`] tokens
/// so nothing inside a string can ever match a rule.
pub fn lex(source: &str) -> Vec<Token> {
    let bytes = source.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;

    fn is_ident_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_'
    }
    fn is_ident_continue(b: u8) -> bool {
        b.is_ascii_alphanumeric() || b == b'_'
    }

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Block comments nest in Rust.
                let mut depth = 1;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i = skip_plain_string(bytes, i, &mut line);
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: String::new(),
                    line,
                });
            }
            b'\'' => {
                // Lifetime or char literal.  After the quote: an identifier
                // char not followed by a closing quote is a lifetime.
                let next = bytes.get(i + 1).copied().unwrap_or(0);
                if is_ident_start(next) && bytes.get(i + 2) != Some(&b'\'') {
                    i += 2;
                    while i < bytes.len() && is_ident_continue(bytes[i]) {
                        i += 1;
                    }
                } else {
                    // Char literal: skip escapes until the closing quote.
                    i += 1;
                    while i < bytes.len() {
                        match bytes[i] {
                            b'\\' => i += 2,
                            b'\'' => {
                                i += 1;
                                break;
                            }
                            b'\n' => {
                                line += 1;
                                i += 1;
                            }
                            _ => i += 1,
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line,
                    });
                }
            }
            _ if is_ident_start(b) => {
                let start = i;
                while i < bytes.len() && is_ident_continue(bytes[i]) {
                    i += 1;
                }
                let text = &source[start..i];
                // A string prefix (r"", b"", br#""#, r#""#) is a literal,
                // not an identifier.
                let next = bytes.get(i).copied().unwrap_or(0);
                let is_raw_capable = matches!(text, "r" | "br" | "rb");
                let is_plain_byte = text == "b" && next == b'"';
                if (is_raw_capable && (next == b'"' || next == b'#')) || is_plain_byte {
                    i = if next == b'"' && !text.contains('r') {
                        skip_plain_string(bytes, i, &mut line)
                    } else {
                        skip_raw_string(bytes, i, &mut line)
                    };
                    tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: String::new(),
                        line,
                    });
                } else {
                    tokens.push(Token {
                        kind: TokenKind::Ident,
                        text: text.to_owned(),
                        line,
                    });
                }
            }
            _ if b.is_ascii_digit() => {
                let start = i;
                while i < bytes.len() && (is_ident_continue(bytes[i])) {
                    i += 1;
                }
                tokens.push(Token {
                    kind: TokenKind::Literal,
                    text: source[start..i].to_owned(),
                    line,
                });
            }
            _ => {
                tokens.push(Token {
                    kind: TokenKind::Punct,
                    text: (b as char).to_string(),
                    line,
                });
                i += 1;
            }
        }
    }
    tokens
}

/// Skips a `"…"` string starting at the opening quote; returns the index
/// past the closing quote.
fn skip_plain_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skips a raw string from the first `#` or `"` after the `r`/`br` prefix;
/// returns the index past the closing delimiter.
fn skip_raw_string(bytes: &[u8], start: usize, line: &mut u32) -> usize {
    let mut i = start;
    let mut hashes = 0;
    while i < bytes.len() && bytes[i] == b'#' {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return i; // not actually a raw string; resynchronize
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
        } else if bytes[i] == b'"'
            && bytes[i + 1..]
                .iter()
                .take(hashes)
                .filter(|b| **b == b'#')
                .count()
                == hashes
        {
            return i + 1 + hashes;
        } else {
            i += 1;
        }
    }
    i
}

/// One rule violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// The rule's stable identifier.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A lexed source tree: `(repo-relative path, tokens)` per file.
pub struct FileSet {
    files: Vec<(String, Vec<Token>)>,
}

impl FileSet {
    /// Builds a file set from raw sources.
    pub fn from_sources(sources: &[(String, String)]) -> Self {
        FileSet {
            files: sources
                .iter()
                .map(|(path, source)| (path.clone(), lex(source)))
                .collect(),
        }
    }
}

/// Runs every rule over the file set.
pub fn analyze(set: &FileSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (path, tokens) in &set.files {
        rule_raw_sync(path, tokens, &mut findings);
        rule_lock_result_unwrap(path, tokens, &mut findings);
        rule_block_on_in_poll(path, tokens, &mut findings);
        rule_blocking_net_in_session(path, tokens, &mut findings);
        rule_unbuffered_frame_write_in_session(path, tokens, &mut findings);
        rule_fallible_unwrap_in_session(path, tokens, &mut findings);
        rule_unbounded_retry_loop(path, tokens, &mut findings);
        rule_raw_instant_timing(path, tokens, &mut findings);
        rule_policy_dispatch_coverage(path, tokens, set, &mut findings);
    }
    rule_frame_size_consistency(set, &mut findings);
    findings
}

/// The sync-layer home file: the one place raw primitives are legal.
const SYNC_LAYER: &str = "crates/core/src/sync.rs";

/// Rule 1: `std::sync::{Mutex, RwLock, Condvar}` outside the sync layer.
fn rule_raw_sync(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if path.ends_with(SYNC_LAYER) {
        return;
    }
    let banned = ["Mutex", "RwLock", "Condvar"];
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_std_sync = tokens[i].is_ident("std")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].is_ident("sync")
            && tokens[i + 4].is_punct(':')
            && tokens[i + 5].is_punct(':');
        if !is_std_sync {
            i += 1;
            continue;
        }
        // Path continues after `std::sync::` — either one segment or a
        // use-group `{...}`.
        let mut j = i + 6;
        if tokens[j].is_punct('{') {
            let mut depth = 1;
            j += 1;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                } else if depth == 1 && banned.iter().any(|b| tokens[j].is_ident(b)) {
                    findings.push(Finding {
                        file: path.to_owned(),
                        line: tokens[j].line,
                        rule: "raw-sync-primitive",
                        message: format!(
                            "raw std::sync::{} bypasses the poison policy and lock-graph \
                             instrumentation; use watchman_core::sync::{}",
                            tokens[j].text, tokens[j].text
                        ),
                    });
                }
                j += 1;
            }
        } else if banned.iter().any(|b| tokens[j].is_ident(b)) {
            findings.push(Finding {
                file: path.to_owned(),
                line: tokens[j].line,
                rule: "raw-sync-primitive",
                message: format!(
                    "raw std::sync::{} bypasses the poison policy and lock-graph \
                     instrumentation; use watchman_core::sync::{}",
                    tokens[j].text, tokens[j].text
                ),
            });
        }
        i = j;
    }
}

/// Rule 2: `.lock().unwrap()` (and `read`/`write`/`expect` variants) in the
/// server's session paths.
fn rule_lock_result_unwrap(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !path.contains("server/src") {
        return;
    }
    for window in tokens.windows(6) {
        let acquires = window[0].is_punct('.')
            && (window[1].is_ident("lock")
                || window[1].is_ident("read")
                || window[1].is_ident("write"))
            && window[2].is_punct('(')
            && window[3].is_punct(')');
        let unwraps = window[4].is_punct('.')
            && (window[5].is_ident("unwrap") || window[5].is_ident("expect"));
        if acquires && unwraps {
            findings.push(Finding {
                file: path.to_owned(),
                line: window[5].line,
                rule: "lock-result-unwrap",
                message: format!(
                    ".{}().{}() cascades one session's poison panic into every session \
                     sharing the lock; the sync layer's guards recover instead",
                    window[1].text, window[5].text
                ),
            });
        }
    }
}

/// Rule 3: `block_on` inside a `poll*` function body.
fn rule_block_on_in_poll(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i + 1 < tokens.len() {
        if tokens[i].is_ident("fn") && tokens[i + 1].text.starts_with("poll") {
            // Find the body's opening brace (return types in this repo never
            // contain a top-level `{`).
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') && !tokens[j].is_punct(';') {
                j += 1;
            }
            if j >= tokens.len() || tokens[j].is_punct(';') {
                i = j.max(i + 1);
                continue; // trait method signature without a body
            }
            let mut depth = 1;
            let mut k = j + 1;
            while k < tokens.len() && depth > 0 {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                } else if tokens[k].is_ident("block_on") {
                    findings.push(Finding {
                        file: path.to_owned(),
                        line: tokens[k].line,
                        rule: "block-on-in-poll",
                        message: format!(
                            "block_on inside `{}` parks a runtime worker thread inside a \
                             poll; enough of these deadlock the whole runtime",
                            tokens[i + 1].text
                        ),
                    });
                }
                k += 1;
            }
            i = k;
        } else {
            i += 1;
        }
    }
}

/// Rule 6: blocking `std::net` sockets and read-timeout polling in the
/// server crate's session paths.  The session stack runs as tasks on the
/// runtime's epoll reactor (`watchman_core::runtime::net`); a blocking
/// socket in those paths pins an OS thread per connection, which is exactly
/// the architecture the reactor refactor removed.  `client.rs` (the
/// blocking wire client, the one sanctioned `std::net` site), `replay.rs`
/// (load drivers holding blocking clients on dedicated threads — the chaos
/// driver's read deadline is stall detection, not an idle-tick poll) and
/// the CLI binaries under `src/bin/` are exempt.
fn rule_blocking_net_in_session(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !path.contains("server/src")
        || path.ends_with("client.rs")
        || path.ends_with("replay.rs")
        || path.contains("/bin/")
    {
        return;
    }
    // Inline `mod tests` bodies are exempt: a unit test playing the *peer*
    // of an async endpoint legitimately holds a blocking socket, and tests
    // never run on the reactor's worker pool.
    let tokens = strip_test_modules(tokens);
    let tokens = tokens.as_slice();
    let banned_types = ["TcpStream", "TcpListener"];
    let report = |findings: &mut Vec<Finding>, line: u32, what: &str| {
        findings.push(Finding {
            file: path.to_owned(),
            line,
            rule: "blocking-net-in-session",
            message: format!(
                "{what} blocks an OS thread per connection; session paths must use the \
                 reactor-driven watchman_core::runtime::net wrappers (client.rs and \
                 src/bin/ are the sanctioned blocking sites)"
            ),
        });
    };
    for token in tokens {
        if token.is_ident("set_read_timeout") || token.is_ident("set_write_timeout") {
            report(
                findings,
                token.line,
                &format!("`{}` (timeout-poll loop on a blocking socket)", token.text),
            );
        }
    }
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_std_net = tokens[i].is_ident("std")
            && tokens[i + 1].is_punct(':')
            && tokens[i + 2].is_punct(':')
            && tokens[i + 3].is_ident("net")
            && tokens[i + 4].is_punct(':')
            && tokens[i + 5].is_punct(':');
        if !is_std_net {
            i += 1;
            continue;
        }
        // Path continues after `std::net::` — one segment or a use-group.
        let mut j = i + 6;
        if tokens[j].is_punct('{') {
            let mut depth = 1;
            j += 1;
            while j < tokens.len() && depth > 0 {
                if tokens[j].is_punct('{') {
                    depth += 1;
                } else if tokens[j].is_punct('}') {
                    depth -= 1;
                } else if depth == 1 && banned_types.iter().any(|b| tokens[j].is_ident(b)) {
                    report(
                        findings,
                        tokens[j].line,
                        &format!("std::net::{}", tokens[j].text),
                    );
                }
                j += 1;
            }
        } else if banned_types.iter().any(|b| tokens[j].is_ident(b)) {
            report(
                findings,
                tokens[j].line,
                &format!("std::net::{}", tokens[j].text),
            );
        }
        i = j;
    }
}

/// Rule 7: per-frame `write_frame` calls in the server crate's session
/// paths.  The session loop writes through a
/// `wire::FrameWriter` — responses staged per burst, flushed as one
/// vectored write — and the pipelined-throughput numbers in
/// `BENCH_connection_scaling.json` gate on the syscalls-per-frame that
/// buys.  A per-frame write helper reintroduced into a session path
/// silently reverts to one syscall per response.  Exempt: `wire.rs` (where
/// the helper lives), the lockstep clients `client.rs` and `replay.rs`
/// (one request in flight at a time — there is never a burst to coalesce),
/// the CLI binaries under `src/bin/`, and inline `mod tests` peers.
fn rule_unbuffered_frame_write_in_session(
    path: &str,
    tokens: &[Token],
    findings: &mut Vec<Finding>,
) {
    if !path.contains("server/src")
        || path.ends_with("wire.rs")
        || path.ends_with("client.rs")
        || path.ends_with("replay.rs")
        || path.contains("/bin/")
    {
        return;
    }
    let tokens = strip_test_modules(tokens);
    for token in &tokens {
        if token.is_ident("write_frame") {
            findings.push(Finding {
                file: path.to_owned(),
                line: token.line,
                rule: "unbuffered-frame-write-in-session",
                message: format!(
                    "`{}` issues one write syscall per frame; session paths stage \
                     responses into wire::FrameWriter and flush each burst as a single \
                     vectored write (wire.rs, client.rs, replay.rs and src/bin/ are the \
                     sanctioned per-frame sites)",
                    token.text
                ),
            });
        }
    }
}

/// Returns the token stream with every `mod tests { … }` body removed
/// (brace-matched, so nested modules inside the test module go with it).
fn strip_test_modules(tokens: &[Token]) -> Vec<Token> {
    let mut kept = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        let starts_test_module = tokens[i].is_ident("mod")
            && tokens.get(i + 1).is_some_and(|t| t.is_ident("tests"))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct('{'));
        if starts_test_module {
            let mut depth = 1;
            i += 3;
            while i < tokens.len() && depth > 0 {
                if tokens[i].is_punct('{') {
                    depth += 1;
                } else if tokens[i].is_punct('}') {
                    depth -= 1;
                }
                i += 1;
            }
        } else {
            kept.push(tokens[i].clone());
            i += 1;
        }
    }
    kept
}

/// The fallible fetch/IO call names rule 8 guards: each returns a `Result`
/// (or `Option` over one) whose failure the session layer must route into
/// the degradation pipeline — retry, stale serve, shed — rather than crash
/// on.  Infallible conversions like `try_into()` are deliberately absent.
const FALLIBLE_CALLS: [&str; 13] = [
    "accept",
    "connect",
    "connect_handshaken",
    "connect_with_retries",
    "flush",
    "next_frame",
    "read_exact",
    "read_frame",
    "stage",
    "try_get_or_execute",
    "try_get_or_execute_async",
    "write_all",
    "write_frame",
];

/// Rule 8: `.unwrap()` / `.expect()` on a fallible fetch or IO call in the
/// server crate's session paths.  One flaky peer or one failed fetch must
/// degrade (retry, stale serve, shed) — never panic the session task it
/// happened on.  The CLI binaries under `src/bin/` are exempt (for a CLI a
/// crash is the error report), as are inline `mod tests` bodies.
fn rule_fallible_unwrap_in_session(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !path.contains("server/src") || path.contains("/bin/") {
        return;
    }
    let tokens = strip_test_modules(tokens);
    let mut i = 0;
    while i + 1 < tokens.len() {
        let is_call =
            FALLIBLE_CALLS.iter().any(|c| tokens[i].is_ident(c)) && tokens[i + 1].is_punct('(');
        if !is_call {
            i += 1;
            continue;
        }
        let call = tokens[i].text.clone();
        // Skip the paren-matched argument list (this also skips `fn accept(…)`
        // signatures: what follows a signature is `->` or `{`, never `.`).
        let mut depth = 1;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('(') {
                depth += 1;
            } else if tokens[j].is_punct(')') {
                depth -= 1;
            }
            j += 1;
        }
        // An `.await` between the call and the unwrap is still the same sin.
        if j + 1 < tokens.len() && tokens[j].is_punct('.') && tokens[j + 1].is_ident("await") {
            j += 2;
        }
        let unwraps = j + 1 < tokens.len()
            && tokens[j].is_punct('.')
            && (tokens[j + 1].is_ident("unwrap") || tokens[j + 1].is_ident("expect"));
        if unwraps {
            findings.push(Finding {
                file: path.to_owned(),
                line: tokens[j + 1].line,
                rule: "fallible-unwrap-in-session",
                message: format!(
                    "`{call}(…).{}()` turns a recoverable fetch/IO failure into a dead \
                     session; route the error into the retry/stale-serve/shed pipeline \
                     (src/bin/ CLIs and tests are the sanctioned crash sites)",
                    tokens[j + 1].text
                ),
            });
        }
        i = j;
    }
}

/// Identifiers that signal a connection attempt inside a loop body.
const CONNECTISH: [&str; 5] = [
    "connect",
    "connect_handshaken",
    "connect_with_retries",
    "ensure_connected",
    "reconnect",
];

/// Whether a token names a visible retry budget.
fn is_budget_ident(token: &Token) -> bool {
    token.kind == TokenKind::Ident
        && (matches!(
            token.text.as_str(),
            "attempt" | "attempts" | "budget" | "retries" | "deadline"
        ) || token.text.starts_with("max_"))
}

/// Rule 9: a `loop` that attempts connections with no visible retry budget
/// in the server crate.  Accept loops are legitimately unbounded (`accept`
/// is not connect-ish); a *reconnect* loop without a bound hammers a dead
/// server forever instead of surfacing the failure after a bounded,
/// backed-off budget the way the `RetryPolicy`-driven paths do.
fn rule_unbounded_retry_loop(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    if !path.contains("server/src") || path.contains("/bin/") {
        return;
    }
    let tokens = strip_test_modules(tokens);
    let mut i = 0;
    while i + 1 < tokens.len() {
        if !(tokens[i].is_ident("loop") && tokens[i + 1].is_punct('{')) {
            i += 1;
            continue;
        }
        let mut depth = 1;
        let mut j = i + 2;
        let mut connect_site: Option<(String, u32)> = None;
        let mut has_budget = false;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('{') {
                depth += 1;
            } else if tokens[j].is_punct('}') {
                depth -= 1;
            } else if connect_site.is_none() && CONNECTISH.iter().any(|c| tokens[j].is_ident(c)) {
                connect_site = Some((tokens[j].text.clone(), tokens[j].line));
            } else if is_budget_ident(&tokens[j]) {
                has_budget = true;
            }
            j += 1;
        }
        if let Some((call, line)) = connect_site {
            if !has_budget {
                findings.push(Finding {
                    file: path.to_owned(),
                    line,
                    rule: "unbounded-retry-loop",
                    message: format!(
                        "`loop` retries `{call}` with no visible budget (attempt/attempts/\
                         budget/retries/deadline or a max_* bound): one dead server becomes \
                         a client spinning forever; bound the loop with RetryPolicy-style \
                         capped attempts"
                    ),
                });
            }
        }
        // Step past the keyword only: nested loops are analyzed on their own.
        i += 1;
    }
}

/// Rule 10: raw `Instant::now()` in the engine or the server crate's
/// session paths.  Those paths time everything through the telemetry clock
/// authority (`watchman_core::telemetry::now()`), which shares the epoch
/// the latency histograms and the flight recorder stamp against.  A raw
/// `Instant::now()` there is a measurement (or a deadline) that bypasses
/// the instrumentation — the exact blind spot the telemetry layer exists
/// to close.  Exempt: `telemetry.rs` (the authority's home and the one
/// sanctioned call site), the blocking client and load drivers
/// (`client.rs`, `replay.rs` — wall-clock report timing, not engine
/// latency), the CLI binaries under `src/bin/`, and inline `mod tests`.
fn rule_raw_instant_timing(path: &str, tokens: &[Token], findings: &mut Vec<Finding>) {
    let in_engine = path.contains("core/src/engine/");
    let in_session = path.contains("server/src")
        && !path.ends_with("client.rs")
        && !path.ends_with("replay.rs")
        && !path.contains("/bin/");
    if (!in_engine && !in_session) || path.ends_with("telemetry.rs") {
        return;
    }
    let tokens = strip_test_modules(tokens);
    for window in tokens.windows(4) {
        if window[0].is_ident("Instant")
            && window[1].is_punct(':')
            && window[2].is_punct(':')
            && window[3].is_ident("now")
        {
            findings.push(Finding {
                file: path.to_owned(),
                line: window[3].line,
                rule: "raw-instant-timing",
                message: "raw Instant::now() bypasses the telemetry clock authority; use \
                          watchman_core::telemetry::now() so the measurement shares the \
                          histogram epoch (telemetry.rs, client.rs, replay.rs, src/bin/ \
                          and tests are the sanctioned raw-clock sites)"
                    .to_owned(),
            });
        }
    }
}

/// Rule 4: every `PolicyKind` variant is dispatched somewhere.
fn rule_policy_dispatch_coverage(
    path: &str,
    tokens: &[Token],
    set: &FileSet,
    findings: &mut Vec<Finding>,
) {
    let mut i = 0;
    while i + 2 < tokens.len() {
        if tokens[i].is_ident("enum") && tokens[i + 1].is_ident("PolicyKind") {
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('{') {
                j += 1;
            }
            let mut depth = 1;
            let mut k = j + 1;
            let mut variants: Vec<(String, u32)> = Vec::new();
            while k < tokens.len() && depth > 0 {
                if tokens[k].is_punct('{') {
                    depth += 1;
                } else if tokens[k].is_punct('}') {
                    depth -= 1;
                } else if depth == 1
                    && tokens[k].kind == TokenKind::Ident
                    && tokens
                        .get(k + 1)
                        .is_some_and(|t| t.is_punct(',') || t.is_punct('{') || t.is_punct('}'))
                {
                    variants.push((tokens[k].text.clone(), tokens[k].line));
                }
                k += 1;
            }
            for (variant, line) in variants {
                let dispatched = set.files.iter().any(|(_, file_tokens)| {
                    file_tokens.windows(4).any(|w| {
                        w[0].is_ident("PolicyKind")
                            && w[1].is_punct(':')
                            && w[2].is_punct(':')
                            && w[3].is_ident(&variant)
                    })
                });
                if !dispatched {
                    findings.push(Finding {
                        file: path.to_owned(),
                        line,
                        rule: "policy-dispatch-coverage",
                        message: format!(
                            "PolicyKind::{variant} is never constructed via a \
                             PolicyKind::{variant} path — an undispatchable policy arm"
                        ),
                    });
                }
            }
            i = k;
        } else {
            i += 1;
        }
    }
}

/// The wire-protocol size caps and their home files.
const FRAME_CONSTS: [(&str, &str); 3] = [
    ("MAX_FRAME_BYTES", "wire.rs"),
    ("MAX_PREFIX_BYTES", "wire.rs"),
    ("MAX_RESULT_BYTES", "server.rs"),
];

/// A cap declaration: (file, line, initializer tokens).
type CapDecl = (String, u32, Vec<Token>);

/// Rule 5: the size caps are single-sourced and mutually consistent.
fn rule_frame_size_consistency(set: &FileSet, findings: &mut Vec<Finding>) {
    // Collect every `const NAME … = <expr> ;` declaration of a cap.
    let mut decls: HashMap<&'static str, Vec<CapDecl>> = HashMap::new();
    for (path, tokens) in &set.files {
        for i in 0..tokens.len() {
            if !tokens[i].is_ident("const") {
                continue;
            }
            let Some(name_token) = tokens.get(i + 1) else {
                continue;
            };
            let Some((name, _)) = FRAME_CONSTS
                .iter()
                .find(|(name, _)| name_token.is_ident(name))
            else {
                continue;
            };
            let mut j = i + 2;
            while j < tokens.len() && !tokens[j].is_punct('=') {
                j += 1;
            }
            let start = j + 1;
            let mut end = start;
            while end < tokens.len() && !tokens[end].is_punct(';') {
                end += 1;
            }
            decls.entry(name).or_default().push((
                path.clone(),
                name_token.line,
                tokens[start..end].to_vec(),
            ));
        }
    }

    let mut values: HashMap<&'static str, u64> = HashMap::new();
    for (name, home) in FRAME_CONSTS {
        let Some(sites) = decls.get(name) else {
            continue; // fixture trees may not contain the real constants
        };
        for (path, line, expr) in sites {
            if !path.ends_with(home) {
                findings.push(Finding {
                    file: path.clone(),
                    line: *line,
                    rule: "frame-size-consistency",
                    message: format!(
                        "{name} redeclared outside its home file ({home}); forked size \
                         caps drift apart and desynchronize peers"
                    ),
                });
            } else if let Some(value) = eval_const_expr(expr, &values) {
                values.insert(name, value);
            }
        }
    }

    let consistent = |a: Option<&u64>, b: Option<&u64>| match (a, b) {
        (Some(a), Some(b)) => a < b,
        _ => true, // a cap we could not evaluate is not a finding
    };
    if !consistent(
        values.get("MAX_PREFIX_BYTES"),
        values.get("MAX_FRAME_BYTES"),
    ) {
        findings.push(Finding {
            file: "crates/server/src/wire.rs".to_owned(),
            line: 0,
            rule: "frame-size-consistency",
            message: format!(
                "MAX_PREFIX_BYTES ({}) must stay strictly below MAX_FRAME_BYTES ({}): a \
                 prefix-sized payload plus headers must fit one frame",
                values["MAX_PREFIX_BYTES"], values["MAX_FRAME_BYTES"]
            ),
        });
    }
    if let (Some(frame), Some(result)) = (
        values.get("MAX_FRAME_BYTES"),
        values.get("MAX_RESULT_BYTES"),
    ) {
        if *frame > *result {
            findings.push(Finding {
                file: "crates/server/src/server.rs".to_owned(),
                line: 0,
                rule: "frame-size-consistency",
                message: format!(
                    "MAX_RESULT_BYTES ({result}) below MAX_FRAME_BYTES ({frame}): the \
                     server would admit results it can never frame"
                ),
            });
        }
    }
}

/// Evaluates a constant expression over `u64` with the operators the cap
/// declarations use (`<<`, `+`, `-`, `*`, parentheses, named references).
/// Returns `None` for anything it does not understand.
fn eval_const_expr(tokens: &[Token], env: &HashMap<&'static str, u64>) -> Option<u64> {
    struct Parser<'a> {
        tokens: &'a [Token],
        pos: usize,
        env: &'a HashMap<&'static str, u64>,
    }
    impl Parser<'_> {
        fn peek(&self) -> Option<&Token> {
            self.tokens.get(self.pos)
        }
        fn shift(&mut self) -> Option<u64> {
            // Lowest precedence in these expressions: `<<`.
            let mut value = self.additive()?;
            while self.peek().is_some_and(|t| t.is_punct('<'))
                && self
                    .tokens
                    .get(self.pos + 1)
                    .is_some_and(|t| t.is_punct('<'))
            {
                self.pos += 2;
                let rhs = self.additive()?;
                value = value.checked_shl(u32::try_from(rhs).ok()?)?;
            }
            Some(value)
        }
        fn additive(&mut self) -> Option<u64> {
            let mut value = self.multiplicative()?;
            loop {
                if self.peek().is_some_and(|t| t.is_punct('+')) {
                    self.pos += 1;
                    value = value.checked_add(self.multiplicative()?)?;
                } else if self.peek().is_some_and(|t| t.is_punct('-')) {
                    self.pos += 1;
                    value = value.checked_sub(self.multiplicative()?)?;
                } else {
                    return Some(value);
                }
            }
        }
        fn multiplicative(&mut self) -> Option<u64> {
            let mut value = self.atom()?;
            while self.peek().is_some_and(|t| t.is_punct('*')) {
                self.pos += 1;
                value = value.checked_mul(self.atom()?)?;
            }
            Some(value)
        }
        fn atom(&mut self) -> Option<u64> {
            let token = self.peek()?.clone();
            if token.is_punct('(') {
                self.pos += 1;
                let value = self.shift()?;
                if !self.peek()?.is_punct(')') {
                    return None;
                }
                self.pos += 1;
                return Some(value);
            }
            self.pos += 1;
            match token.kind {
                TokenKind::Literal => {
                    // `1_024` and `16u32` both parse; `_` separators drop
                    // out and a type suffix terminates the digits.
                    let digits: String = token
                        .text
                        .chars()
                        .filter(|c| *c != '_')
                        .take_while(|c| c.is_ascii_digit())
                        .collect();
                    if digits.is_empty() {
                        None
                    } else {
                        digits.parse().ok()
                    }
                }
                TokenKind::Ident => self.env.get(token.text.as_str()).copied(),
                TokenKind::Punct => None,
            }
        }
    }
    let mut parser = Parser {
        tokens,
        pos: 0,
        env,
    };
    let value = parser.shift()?;
    // Trailing tokens we do not model (casts, generics) poison the result:
    // better no value than a wrong one.
    (parser.pos == tokens.len()).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze_one(path: &str, source: &str) -> Vec<Finding> {
        analyze(&FileSet::from_sources(&[(
            path.to_owned(),
            source.to_owned(),
        )]))
    }

    fn fixture(name: &str) -> String {
        let path = format!("{}/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    }

    #[test]
    fn lexer_strips_comments_strings_and_lifetimes() {
        let tokens = lex(concat!(
            "// std::sync::Mutex in a comment\n",
            "/* std::sync::Mutex /* nested */ in a block */\n",
            "let s = \"std::sync::Mutex in a string\";\n",
            "let r = r#\"std::sync::Mutex raw \" quote\"#;\n",
            "let c: char = ':'; let l: &'static str = \"x\";\n",
            "fn generic<'a>(x: &'a u8) {}\n",
        ));
        assert!(
            !tokens.iter().any(|t| t.is_ident("Mutex")),
            "nothing inside comments or strings may surface as an identifier"
        );
        assert!(tokens.iter().any(|t| t.is_ident("generic")));
    }

    #[test]
    fn lexer_tracks_lines() {
        let tokens = lex("a\nb\n\nc");
        let lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn raw_sync_fixture_fires_and_sync_layer_is_exempt() {
        let source = fixture("raw_sync.rs");
        let findings = analyze_one("crates/server/src/bad.rs", &source);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "raw-sync-primitive")
            .collect();
        assert!(hits.len() >= 2, "expected both seeded uses: {findings:?}");
        // The same source inside the sync layer itself is legal.
        let exempt = analyze_one(SYNC_LAYER, &source);
        assert!(exempt.iter().all(|f| f.rule != "raw-sync-primitive"));
    }

    #[test]
    fn raw_sync_allows_arc_and_atomics() {
        let findings = analyze_one(
            "crates/core/src/metrics.rs",
            "use std::sync::Arc;\nuse std::sync::atomic::{AtomicU64, Ordering};\n\
             use std::sync::{Barrier, OnceLock};\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn lock_unwrap_fixture_fires_only_in_server_paths() {
        let source = fixture("lock_unwrap.rs");
        let findings = analyze_one("crates/server/src/session.rs", &source);
        assert!(
            findings.iter().any(|f| f.rule == "lock-result-unwrap"),
            "{findings:?}"
        );
        let elsewhere = analyze_one("crates/sim/src/table.rs", &source);
        assert!(elsewhere.iter().all(|f| f.rule != "lock-result-unwrap"));
    }

    #[test]
    fn block_on_fixture_fires_inside_poll_only() {
        let source = fixture("block_on_poll.rs");
        let findings = analyze_one("crates/core/src/runtime/fut.rs", &source);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "block-on-in-poll")
            .collect();
        assert_eq!(hits.len(), 1, "{findings:?}");
        // The fixture also calls block_on OUTSIDE a poll body; only the
        // inside use may fire, and the line number must point at it.
        assert_eq!(hits[0].line, 14, "{hits:?}");
    }

    #[test]
    fn blocking_net_fixture_fires_in_session_paths_only() {
        let source = fixture("blocking_net.rs");
        let findings = analyze_one("crates/server/src/session.rs", &source);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "blocking-net-in-session")
            .collect();
        // Two std::net types (one direct, one in a use-group) plus the
        // set_read_timeout poll; the SocketAddr in the same use-group and
        // the blocking peer inside `mod tests` are both legal.
        assert_eq!(hits.len(), 3, "{findings:?}");
        assert!(
            hits.iter().any(|f| f.message.contains("set_read_timeout")),
            "{hits:?}"
        );
        assert!(
            hits.iter()
                .all(|f| !f.message.contains("std::net::SocketAddr")),
            "{hits:?}"
        );
        // The blocking client, the load drivers and the CLI binaries are
        // sanctioned sites, and the rule has no opinion outside the server
        // crate.
        for exempt in [
            "crates/server/src/client.rs",
            "crates/server/src/replay.rs",
            "crates/server/src/bin/loadgen.rs",
            "crates/sim/src/driver.rs",
        ] {
            let findings = analyze_one(exempt, &source);
            assert!(
                findings.iter().all(|f| f.rule != "blocking-net-in-session"),
                "{exempt}: {findings:?}"
            );
        }
    }

    #[test]
    fn unbuffered_write_fixture_fires_in_session_paths_only() {
        let source = fixture("unbuffered_write.rs");
        let findings = analyze_one("crates/server/src/server.rs", &source);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "unbuffered-frame-write-in-session")
            .collect();
        // The session loop's write and the sync fallback; the per-frame
        // write inside `mod tests` (a test playing the peer) is legal.
        assert_eq!(hits.len(), 2, "{findings:?}");
        assert!(
            hits.iter().all(|f| f.message.contains("`write_frame`")),
            "{hits:?}"
        );
        // The helpers' home file, the lockstep clients and the CLI
        // binaries are sanctioned per-frame sites, and the rule has no
        // opinion outside the server crate.
        for exempt in [
            "crates/server/src/wire.rs",
            "crates/server/src/client.rs",
            "crates/server/src/replay.rs",
            "crates/server/src/bin/loadgen.rs",
            "crates/sim/src/driver.rs",
        ] {
            let findings = analyze_one(exempt, &source);
            assert!(
                findings
                    .iter()
                    .all(|f| f.rule != "unbuffered-frame-write-in-session"),
                "{exempt}: {findings:?}"
            );
        }
    }

    #[test]
    fn fallible_unwrap_fixture_fires_in_session_paths_only() {
        let source = fixture("fallible_unwrap.rs");
        let findings = analyze_one("crates/server/src/server.rs", &source);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "fallible-unwrap-in-session")
            .collect();
        // The async frame read, the awaited fetch and the blocking frame
        // write; the `?`-propagation, the `.ok()`, the try_into().unwrap()
        // and the whole `mod tests` peer are all legal.
        assert_eq!(hits.len(), 3, "{findings:?}");
        assert!(
            hits.iter()
                .any(|f| f.message.contains("try_get_or_execute_async")),
            "{hits:?}"
        );
        assert!(
            hits.iter().any(|f| f.message.contains("next_frame")),
            "{hits:?}"
        );
        // The CLI binaries are sanctioned crash sites, and the rule has no
        // opinion outside the server crate.
        for exempt in [
            "crates/server/src/bin/watchmand.rs",
            "crates/sim/src/driver.rs",
        ] {
            let findings = analyze_one(exempt, &source);
            assert!(
                findings
                    .iter()
                    .all(|f| f.rule != "fallible-unwrap-in-session"),
                "{exempt}: {findings:?}"
            );
        }
    }

    #[test]
    fn unbounded_retry_fixture_fires_on_the_budgetless_loop_only() {
        let source = fixture("unbounded_retry.rs");
        let findings = analyze_one("crates/server/src/client.rs", &source);
        let hits: Vec<_> = findings
            .iter()
            .filter(|f| f.rule == "unbounded-retry-loop")
            .collect();
        // Only the budgetless reconnect loop: the bounded loop carries
        // `attempt`/`budget`, and the accept loop is unbounded by design.
        assert_eq!(hits.len(), 1, "{findings:?}");
        assert!(hits[0].message.contains("connect"), "{hits:?}");
        for exempt in [
            "crates/server/src/bin/loadgen.rs",
            "crates/sim/src/driver.rs",
        ] {
            let findings = analyze_one(exempt, &source);
            assert!(
                findings.iter().all(|f| f.rule != "unbounded-retry-loop"),
                "{exempt}: {findings:?}"
            );
        }
    }

    #[test]
    fn raw_instant_fixture_fires_in_engine_and_session_paths_only() {
        let source = fixture("raw_instant.rs");
        for guarded in [
            "crates/server/src/server.rs",
            "crates/core/src/engine/watchman.rs",
        ] {
            let findings = analyze_one(guarded, &source);
            let hits: Vec<_> = findings
                .iter()
                .filter(|f| f.rule == "raw-instant-timing")
                .collect();
            // The full-path read and the imported-form read; the telemetry
            // clock authority, the string, the comment and the raw read
            // inside `mod tests` all stay quiet.
            assert_eq!(hits.len(), 2, "{guarded}: {findings:?}");
        }
        // The clock authority's home, the blocking client, the load
        // drivers, the CLI binaries and everything outside the engine and
        // server crates keep their raw clocks.
        for exempt in [
            "crates/core/src/telemetry.rs",
            "crates/server/src/client.rs",
            "crates/server/src/replay.rs",
            "crates/server/src/bin/loadgen.rs",
            "crates/core/src/runtime/mod.rs",
            "crates/bench/benches/wire_roundtrip.rs",
        ] {
            let findings = analyze_one(exempt, &source);
            assert!(
                findings.iter().all(|f| f.rule != "raw-instant-timing"),
                "{exempt}: {findings:?}"
            );
        }
    }

    #[test]
    fn policy_fixture_reports_orphan_variants() {
        let source = fixture("policy_gap.rs");
        let findings = analyze_one("crates/core/src/engine/policy_kind.rs", &source);
        let rule = |f: &&Finding| f.rule == "policy-dispatch-coverage";
        let orphans: Vec<_> = findings.iter().filter(rule).collect();
        assert_eq!(orphans.len(), 1, "{findings:?}");
        assert!(orphans[0].message.contains("PolicyKind::Orphan"));
    }

    #[test]
    fn frame_const_fixture_reports_forked_caps() {
        let source = fixture("frame_fork.rs");
        let findings = analyze_one("crates/client/src/client.rs", &source);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "frame-size-consistency" && f.message.contains("redeclared")),
            "{findings:?}"
        );
    }

    #[test]
    fn frame_consts_in_home_files_must_be_ordered() {
        let wire = "pub const MAX_FRAME_BYTES: u32 = 16 << 20;\n\
                    pub const MAX_PREFIX_BYTES: u32 = MAX_FRAME_BYTES + 1024;\n";
        let findings = analyze_one("crates/server/src/wire.rs", wire);
        assert!(
            findings
                .iter()
                .any(|f| f.rule == "frame-size-consistency" && f.message.contains("strictly below")),
            "{findings:?}"
        );
        let good = "pub const MAX_FRAME_BYTES: u32 = 16 << 20;\n\
                    pub const MAX_PREFIX_BYTES: u32 = MAX_FRAME_BYTES - 1024;\n";
        assert!(analyze_one("crates/server/src/wire.rs", good).is_empty());
    }

    #[test]
    fn const_expr_evaluator_handles_the_cap_grammar() {
        let env = HashMap::from([("MAX_FRAME_BYTES", 16_u64 << 20)]);
        let eval = |src: &str| eval_const_expr(&lex(src), &env);
        assert_eq!(eval("16 << 20"), Some(16 << 20));
        assert_eq!(eval("64 << 20"), Some(64 << 20));
        assert_eq!(eval("MAX_FRAME_BYTES - 1024"), Some((16 << 20) - 1024));
        assert_eq!(eval("(4 + 12) << 20"), Some(16 << 20));
        assert_eq!(eval("2 * 8 << 20"), Some(16 << 20));
        assert_eq!(eval("1_024"), Some(1024));
        assert_eq!(eval("16u32"), Some(16));
        assert_eq!(eval("SOME_UNKNOWN"), None);
    }

    #[test]
    fn clean_sources_produce_no_findings() {
        let findings = analyze_one(
            "crates/core/src/engine/watchman.rs",
            "use crate::sync::{Mutex, MutexGuard};\n\
             fn lookup(&self) { let state = self.state.lock(); drop(state); }\n\
             fn poll_ready(&mut self, cx: &mut Context<'_>) -> Poll<()> { Poll::Ready(()) }\n",
        );
        assert!(findings.is_empty(), "{findings:?}");
    }
}
