//! The hand-rolled line scanner behind the lint pass.
//!
//! The environment has no registry access, so — like the vendored
//! `rand`/`proptest` stand-ins — this is a deliberately small,
//! std-only lexer rather than a full parser. It produces, per source
//! line:
//!
//! * the **code text** with comments and the *contents* of string/char
//!   literals blanked out (so a `"HashMap"` inside a panic message never
//!   trips the determinism rule);
//! * the **comment text** (everything behind `//` on that line), which
//!   is where `mla-lint: allow(...)` pragmas live;
//! * whether the line sits inside a `#[cfg(test)]`-gated item (test
//!   modules are exempt from every content rule).
//!
//! The lexer understands nested block comments, raw strings
//! (`r"…"`/`r#"…"#`), byte strings, char literals vs. lifetimes, and
//! escape sequences — everything this workspace's sources actually use.

/// One scanned source line.
#[derive(Debug, Clone)]
pub struct ScannedLine {
    /// 1-based line number.
    pub number: usize,
    /// Code with comments removed and literal contents blanked.
    pub code: String,
    /// Text of the trailing `//` comment on this line, if any.
    pub comment: String,
    /// `true` when the line is inside a `#[cfg(test)]`-gated item.
    pub in_test: bool,
}

/// A whole file, scanned.
#[derive(Debug, Clone)]
pub struct ScannedFile {
    /// The scanned lines, in order.
    pub lines: Vec<ScannedLine>,
}

/// Lexer state while walking the raw text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Code,
    /// Block comment with nesting depth.
    BlockComment(u32),
    /// String literal; `raw_hashes` is `Some(k)` for `r#…#"…"#…#`.
    Str {
        raw_hashes: Option<u32>,
    },
    Char,
}

/// Scans raw source text into per-line code/comment/test-flag records.
#[must_use]
pub fn scan(text: &str) -> ScannedFile {
    let mut lines = Vec::new();
    let mut mode = Mode::Code;
    for (index, raw) in text.lines().enumerate() {
        let (code, comment, next) = scan_line(raw, mode);
        mode = next;
        lines.push(ScannedLine {
            number: index + 1,
            code,
            comment,
            in_test: false,
        });
    }
    mark_test_blocks(&mut lines);
    ScannedFile { lines }
}

/// Scans one physical line starting in `mode`; returns the blanked code
/// text, the trailing line-comment text, and the mode the next line
/// starts in.
#[allow(clippy::too_many_lines)]
fn scan_line(raw: &str, start: Mode) -> (String, String, Mode) {
    let chars: Vec<char> = raw.chars().collect();
    let mut code = String::with_capacity(raw.len());
    let mut comment = String::new();
    let mut mode = start;
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match mode {
            Mode::BlockComment(depth) => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    i += 2;
                    mode = if depth == 1 {
                        code.push(' ');
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    i += 2;
                    mode = Mode::BlockComment(depth + 1);
                } else {
                    i += 1;
                }
            }
            Mode::Str { raw_hashes } => {
                match raw_hashes {
                    None => {
                        if c == '\\' {
                            i += 2; // skip the escaped char
                        } else if c == '"' {
                            code.push('"');
                            i += 1;
                            mode = Mode::Code;
                        } else {
                            i += 1;
                        }
                    }
                    Some(k) => {
                        // Raw string: ends at `"` followed by k hashes.
                        if c == '"' && has_hashes(&chars, i + 1, k) {
                            code.push('"');
                            i += 1 + k as usize;
                            mode = Mode::Code;
                        } else {
                            i += 1;
                        }
                    }
                }
            }
            Mode::Char => {
                if c == '\\' {
                    i += 2;
                } else if c == '\'' {
                    code.push('\'');
                    i += 1;
                    mode = Mode::Code;
                } else {
                    i += 1;
                }
            }
            Mode::Code => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    // Line comment: the rest of the line, pragma-bearing.
                    comment = chars[i + 2..].iter().collect();
                    break;
                }
                if c == '/' && chars.get(i + 1) == Some(&'*') {
                    i += 2;
                    mode = Mode::BlockComment(1);
                    continue;
                }
                if c == '"' {
                    code.push('"');
                    i += 1;
                    mode = Mode::Str { raw_hashes: None };
                    continue;
                }
                // Raw / byte string starts: r", r#", br", b".
                if (c == 'r' || c == 'b') && !prev_is_word(&code) {
                    if let Some((hashes, consumed)) = raw_string_start(&chars, i) {
                        code.push('"');
                        i += consumed;
                        mode = Mode::Str {
                            raw_hashes: Some(hashes),
                        };
                        continue;
                    }
                    if c == 'b' && chars.get(i + 1) == Some(&'"') {
                        code.push('"');
                        i += 2;
                        mode = Mode::Str { raw_hashes: None };
                        continue;
                    }
                }
                if c == '\'' {
                    // Char literal or lifetime? A lifetime is `'ident` not
                    // followed by a closing quote; chars are short.
                    if is_char_literal(&chars, i) {
                        code.push('\'');
                        i += 1;
                        mode = Mode::Char;
                        continue;
                    }
                    // Lifetime: keep the quote, scan on as code.
                    code.push('\'');
                    i += 1;
                    continue;
                }
                code.push(c);
                i += 1;
            }
        }
    }
    (code, comment, line_end_mode(mode))
}

/// Mode carried over a line break: strings stay open (multi-line
/// literals), char literals cannot span lines, comments persist.
fn line_end_mode(mode: Mode) -> Mode {
    match mode {
        Mode::Char => Mode::Code,
        other => other,
    }
}

/// `true` if `chars[at..at + k]` are all `#`.
fn has_hashes(chars: &[char], at: usize, k: u32) -> bool {
    let k = k as usize;
    chars.len() >= at + k && chars[at..at + k].iter().all(|&c| c == '#')
}

/// `true` when the scanned code so far ends in an identifier character —
/// then a following `r`/`b` is part of an identifier, not a literal
/// prefix.
fn prev_is_word(code: &str) -> bool {
    code.chars().next_back().is_some_and(is_word)
}

/// Detects `r"`, `r#"`, `br"`, `br#"` at `chars[i..]`; returns
/// `(hash_count, chars_consumed_up_to_and_including_the_quote)`.
fn raw_string_start(chars: &[char], i: usize) -> Option<(u32, usize)> {
    let mut j = i;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while chars.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    (chars.get(j) == Some(&'"')).then_some((hashes, j + 1 - i))
}

/// Decides whether the `'` at `chars[i]` opens a char literal (as opposed
/// to a lifetime). A char literal closes within a few characters; a
/// lifetime never closes.
fn is_char_literal(chars: &[char], i: usize) -> bool {
    match chars.get(i + 1) {
        Some('\\') => true, // '\n', '\'', '\u{…}'
        Some(&c) if is_word(c) || c == '_' => chars.get(i + 2) == Some(&'\''),
        Some(_) => true, // '(' , ' ' … punctuation chars
        None => false,
    }
}

/// Identifier characters for word-boundary checks.
pub(crate) fn is_word(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Marks every line belonging to a `#[cfg(test)]`-gated item. The
/// attribute gates the *next item*: we skip to the item's first `{` and
/// flag lines until its braces balance (or to the terminating `;` for a
/// braceless item such as a gated `use`).
fn mark_test_blocks(lines: &mut [ScannedLine]) {
    let mut i = 0usize;
    while i < lines.len() {
        if !lines[i].code.contains("cfg(test)") {
            i += 1;
            continue;
        }
        lines[i].in_test = true;
        let mut depth: i64 = 0;
        let mut entered = false;
        let mut j = i;
        'outer: while j < lines.len() {
            lines[j].in_test = true;
            // Walk this line's code; the attribute line itself contains
            // only `#[cfg(test)]`, so braces start on a later line.
            let start = if j == i {
                lines[j].code.find("cfg(test)").map_or(0, |p| p + 9)
            } else {
                0
            };
            for c in lines[j].code[start..].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        entered = true;
                    }
                    '}' => {
                        depth -= 1;
                        if entered && depth <= 0 {
                            break 'outer;
                        }
                    }
                    ';' if !entered => break 'outer, // gated braceless item
                    _ => {}
                }
            }
            j += 1;
        }
        i = j + 1;
    }
}

/// Finds `pattern` in `code` at a word boundary: the characters just
/// before and after the match must not be identifier characters.
#[must_use]
pub fn find_word(code: &str, pattern: &str) -> Option<usize> {
    let mut from = 0usize;
    while let Some(at) = code[from..].find(pattern) {
        let at = from + at;
        let before_ok = at == 0 || !code[..at].chars().next_back().is_some_and(is_word);
        let end = at + pattern.len();
        let after_ok = end >= code.len() || !code[end..].chars().next().is_some_and(is_word);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + pattern.len().max(1);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_comments_and_literal_contents() {
        let scanned = scan("let x = \"HashMap\"; // HashMap here\nlet y = 1; /* Instant */ z();\n");
        assert!(!scanned.lines[0].code.contains("HashMap"));
        assert!(scanned.lines[0].comment.contains("HashMap"));
        assert!(!scanned.lines[1].code.contains("Instant"));
        assert!(scanned.lines[1].code.contains("z()"));
    }

    #[test]
    fn raw_strings_and_chars_are_blanked() {
        let scanned =
            scan("let s = r#\"panic!(\"x\")\"#; let c = '\\'';\nlet l: &'static str = \"\";\n");
        assert!(!scanned.lines[0].code.contains("panic!"));
        assert!(scanned.lines[1].code.contains("'static"));
    }

    #[test]
    fn multi_line_strings_stay_open() {
        let scanned = scan("let s = \"first\nsecond .unwrap()\nthird\"; done();\n");
        assert!(!scanned.lines[1].code.contains("unwrap"));
        assert!(scanned.lines[2].code.contains("done()"));
    }

    #[test]
    fn nested_block_comments() {
        let scanned = scan("/* outer /* inner */ still comment */ code();\n");
        let code = &scanned.lines[0].code;
        assert!(code.contains("code()"), "got {code:?}");
        assert!(!code.contains("still"));
    }

    #[test]
    fn cfg_test_blocks_are_marked() {
        let text = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() {}\n";
        let scanned = scan(text);
        let flags: Vec<bool> = scanned.lines.iter().map(|l| l.in_test).collect();
        assert_eq!(flags, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_test_on_braceless_item() {
        let text = "#[cfg(test)]\nuse helper::thing;\nfn live() {}\n";
        let scanned = scan(text);
        assert!(scanned.lines[1].in_test);
        assert!(!scanned.lines[2].in_test);
    }

    #[test]
    fn word_boundaries() {
        assert!(find_word("let m: HashMap<u32, u32>;", "HashMap").is_some());
        assert!(find_word("let m = MyHashMapLike::new();", "HashMap").is_none());
        assert!(find_word("option_env!(\"X\")", "env!").is_none());
        assert!(find_word("env!(\"X\")", "env!").is_some());
    }
}
