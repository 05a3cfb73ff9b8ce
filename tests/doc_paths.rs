//! The prose cannot name a file the tree does not have.
//!
//! Every backticked repository path in README.md, DESIGN.md and
//! EXPERIMENTS.md must exist, and every file under `results/` must be
//! named in EXPERIMENTS.md "Reproducing", beside the command that
//! regenerates it. A repository path is an inline code span without
//! spaces whose first component is one of the repository's top-level
//! directories; `::item` and `:line` suffixes are dropped, `{a,b}`
//! alternatives are expanded, and a `*` matches within one path
//! component. Fenced code blocks are commands, not citations, and are
//! skipped, as are keep/kill table rows whose verdict is "deleted":
//! they name what is gone on purpose.

use std::collections::BTreeSet;
use std::path::Path;

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];
const TOP_DIRS: [&str; 9] = [
    ".github", "crates", "examples", "results", "scripts", "shims", "src", "stbench", "tests",
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(doc: &str) -> String {
    std::fs::read_to_string(root().join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"))
}

/// `(line number, path)` for every repository path cited in `text`,
/// braces expanded.
fn cited_paths(text: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.starts_with("```") {
            fenced = !fenced;
            continue;
        }
        let deleted_row = trimmed.starts_with('|')
            && trimmed
                .trim_end_matches('|')
                .rsplit('|')
                .next()
                .is_some_and(|verdict| verdict.trim().starts_with("deleted"));
        if fenced || deleted_row {
            continue;
        }
        for span in line.split('`').skip(1).step_by(2) {
            let Some((first, _)) = span.split_once('/') else {
                continue;
            };
            if span.contains(char::is_whitespace) || !TOP_DIRS.contains(&first) {
                continue;
            }
            let path = span.split("::").next().unwrap();
            let path = match path.split_once(':') {
                Some((file, line)) if line.starts_with(|c: char| c.is_ascii_digit()) => file,
                _ => path,
            };
            out.extend(expand_braces(path).into_iter().map(|p| (i + 1, p)));
        }
    }
    out
}

fn expand_braces(path: &str) -> Vec<String> {
    let Some((open, close)) = path
        .find('{')
        .and_then(|open| Some((open, open + path[open..].find('}')?)))
    else {
        return vec![path.to_string()];
    };
    path[open + 1..close]
        .split(',')
        .flat_map(|alt| expand_braces(&format!("{}{alt}{}", &path[..open], &path[close + 1..])))
        .collect()
}

/// Whether `pattern` matches `name`, `*` standing for any run of
/// characters.
fn glob_matches(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, tail)) => {
            name.starts_with(head)
                && (head.len()..=name.len())
                    .filter(|&at| name.is_char_boundary(at))
                    .any(|at| glob_matches(tail, &name[at..]))
        }
    }
}

fn exists(path: &str) -> bool {
    if !path.contains('*') {
        return root().join(path).exists();
    }
    let (dir, pattern) = path.rsplit_once('/').unwrap();
    std::fs::read_dir(root().join(dir)).is_ok_and(|entries| {
        entries
            .flatten()
            .any(|e| glob_matches(pattern, &e.file_name().to_string_lossy()))
    })
}

#[test]
fn every_backticked_repository_path_exists() {
    let mut missing = Vec::new();
    for doc in DOCS {
        for (line, path) in cited_paths(&read(doc)) {
            if !exists(&path) {
                missing.push(format!("{doc}:{line}: `{path}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "cited paths that do not exist:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_result_file_is_named_in_reproducing() {
    let experiments = read("EXPERIMENTS.md");
    let start = experiments
        .find("\n## Reproducing")
        .expect("EXPERIMENTS.md has a \"Reproducing\" section");
    let section = &experiments[start + 1..];
    let section = section[1..]
        .find("\n## ")
        .map_or(section, |end| &section[..end + 1]);
    let named: BTreeSet<String> = cited_paths(section).into_iter().map(|(_, p)| p).collect();
    let mut unnamed = Vec::new();
    for entry in std::fs::read_dir(root().join("results")).unwrap().flatten() {
        let path = format!("results/{}", entry.file_name().to_string_lossy());
        if !named.contains(&path) {
            unnamed.push(path);
        }
    }
    unnamed.sort();
    assert!(
        unnamed.is_empty(),
        "result files no command in EXPERIMENTS.md \"Reproducing\" regenerates:\n{}",
        unnamed.join("\n")
    );
}
