//! Command lines quoted in documentation, for the tests of `bat` and
//! `bat-harness` that parse each against its command's declared flags.
//! Test-only: both binaries' test builds include this file.

/// The arguments after `binary` of every line of `doc` that runs it
/// (`bat` matches `bat` and `./target/release/bat`, not `bat-harness`).
/// With `fenced`, only lines inside ```` ``` ```` code blocks count. A
/// line ending in `\` is joined with the next, `#` starts a comment, and
/// double quotes group words (`--arch "RTX 3090"`).
pub fn command_lines(doc: &str, binary: &str, fenced: bool) -> Vec<Vec<String>> {
    let (mut lines, mut in_block, mut joined) = (Vec::new(), !fenced, String::new());
    for line in doc.lines() {
        if fenced && line.trim_start().starts_with("```") {
            in_block = !in_block;
            continue;
        }
        if !in_block {
            continue;
        }
        let line = line.trim_end();
        joined.push_str(line.trim_end_matches('\\'));
        joined.push(' ');
        if line.ends_with('\\') {
            continue;
        }
        let words = split_words(&std::mem::take(&mut joined));
        let suffix = format!("/{binary}");
        if let Some(at) = words
            .iter()
            .position(|w| w == binary || w.ends_with(&suffix))
        {
            lines.push(words[at + 1..].to_vec());
        }
    }
    lines
}

/// Split a shell line into words, up to a `#` comment.
fn split_words(line: &str) -> Vec<String> {
    let (mut words, mut word, mut quoted) = (Vec::new(), String::new(), false);
    for c in line.chars() {
        match c {
            '"' => quoted = !quoted,
            '#' if !quoted && word.is_empty() => break,
            c if c.is_whitespace() && !quoted => {
                if !word.is_empty() {
                    words.push(std::mem::take(&mut word));
                }
            }
            c => word.push(c),
        }
    }
    if !word.is_empty() {
        words.push(word);
    }
    words
}

#[test]
fn command_lines_join_continuations_and_skip_comments() {
    let doc = "text bat tune\n```sh\n# bat fig1\n./target/release/bat cache inspect --arch \"RTX 3090\" \\\n    --bench gemm  # trailing\nBAT_THREADS=2 ./target/release/bat-harness run\n```\n";
    assert_eq!(
        command_lines(doc, "bat", true),
        [["cache", "inspect", "--arch", "RTX 3090", "--bench", "gemm"]]
    );
    assert_eq!(command_lines(doc, "bat-harness", true), [["run"]]);
    assert_eq!(command_lines(doc, "bat", false).len(), 2);
}
