//! Crate layering (DESIGN.md §6.1a): every workspace crate may depend only
//! on crates in *strictly lower* layers, so the dependency graph is a DAG
//! by construction. Cargo already rejects an `exegpt_*` path that is not a
//! declared dependency; this test rejects a declared `[dependencies]` edge
//! that points sideways or upward. `[dev-dependencies]` are exempt: test
//! code may look upward.
//!
//! It also rejects a dependency that nothing uses: every
//! `[workspace.dependencies]` entry with a `third_party/` path must be a
//! dependency (of any kind) of at least one workspace crate, and every
//! `[dependencies]` entry of a crate must be named somewhere in that
//! crate's `src/` (one that only tests use is a `[dev-dependencies]`
//! entry).
//!
//! And it keeps README's examples table honest: every `examples/*.rs` has a
//! row, and every row names an existing example. DESIGN.md's experiment
//! table likewise names only modules and items that exist.

use std::path::Path;

/// The declared layering, bottom (0) to top, by directory under `crates/`.
/// The package is `exegpt-<dir>`, except `core`, whose package is `exegpt`.
const LAYERS: &[(&str, u8)] = &[
    ("units", 0),
    ("dist", 0),
    ("model", 0),
    ("xlint", 0),
    ("cluster", 1),
    ("profiler", 2),
    ("sim", 3),
    ("workload", 4),
    ("core", 5),
    ("runner", 6),
    ("serve", 8),
    ("baselines", 8),
    ("fleet", 9),
    ("scenario", 10),
    ("bench", 11),
];

fn layer(dir: &str) -> Option<u8> {
    LAYERS.iter().find(|(d, _)| *d == dir).map(|&(_, l)| l)
}

/// The crate directory a package name refers to.
fn dir_of_package(package: &str) -> Option<&str> {
    if package == "exegpt" {
        Some("core")
    } else {
        package.strip_prefix("exegpt-")
    }
}

/// The keys of a manifest's dependency entries, in the tables whose header
/// satisfies `table`.
fn dependency_keys(manifest: &str, table: impl Fn(&str) -> bool) -> Vec<&str> {
    let mut in_table = false;
    let mut keys = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_table = table(line);
            continue;
        }
        let key = line.split(['=', '.', ' ']).next().unwrap_or("").trim_matches('"');
        if in_table && line.contains('=') && !key.is_empty() {
            keys.push(key);
        }
    }
    keys
}

/// The vendored shims of the root manifest's `[workspace.dependencies]`
/// that no manifest in `manifests` depends on.
fn unused_shims<'a>(root: &'a str, manifests: &[&str]) -> Vec<&'a str> {
    let shims =
        dependency_keys(root, |t| t == "[workspace.dependencies]").into_iter().filter(|k| {
            root.lines().any(|l| l.trim().starts_with(&format!("{k} = {{ path = \"third_party/")))
        });
    shims
        .filter(|shim| {
            !manifests.iter().any(|m| {
                dependency_keys(m, |t| t.ends_with("dependencies]") && !t.starts_with("[workspace"))
                    .contains(shim)
            })
        })
        .collect()
}

/// Whether `source` spells `name` as a whole identifier.
fn names(source: &str, name: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source
        .match_indices(name)
        .any(|(i, _)| !source[..i].ends_with(ident) && !source[i + name.len()..].starts_with(ident))
}

/// The `[dependencies]` entries of `manifest` whose crate name (the key
/// with `-` spelled `_`) `source` never spells.
fn unused_dependencies<'a>(manifest: &'a str, source: &str) -> Vec<&'a str> {
    dependency_keys(manifest, |t| t == "[dependencies]")
        .into_iter()
        .filter(|dep| !names(source, &dep.replace('-', "_")))
        .collect()
}

/// The text of every `.rs` file under `dir`, recursively.
fn source_under(dir: &Path) -> String {
    let mut source = String::new();
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            source.push_str(&source_under(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            source.push_str(&std::fs::read_to_string(&path).expect("readable source"));
            source.push('\n');
        }
    }
    source
}

/// Every layering violation in the manifest of the crate at `crates/<dir>`.
fn violations(dir: &str, manifest: &str) -> Vec<String> {
    let Some(from) = layer(dir) else {
        return vec![format!("crate `{dir}` has no declared layer")];
    };
    dependency_keys(manifest, |t| t == "[dependencies]")
        .into_iter()
        .filter(|dep| dep.starts_with("exegpt"))
        .filter_map(|dep| match dir_of_package(dep).and_then(|to| Some((to, layer(to)?))) {
            None => Some(format!("`{dir}` depends on `{dep}`, which has no declared layer")),
            Some((to, l)) if l >= from => {
                Some(format!("`{dir}` (layer {from}) depends on `{to}` (layer {l})"))
            }
            Some(_) => None,
        })
        .collect()
}

#[test]
fn every_crate_depends_only_on_lower_layers() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut dirs: Vec<String> = std::fs::read_dir(&crates)
        .expect("crates/ is readable")
        .map(|e| e.expect("directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    dirs.sort();
    let mut found = Vec::new();
    for dir in &dirs {
        let manifest = std::fs::read_to_string(crates.join(dir).join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("crates/{dir}/Cargo.toml: {e}"));
        found.extend(violations(dir, &manifest));
    }
    assert!(found.is_empty(), "layering violations:\n{}", found.join("\n"));
    for (dir, _) in LAYERS {
        assert!(dirs.iter().any(|d| d == dir), "declared crate `{dir}` is not under crates/");
    }
}

#[test]
fn upward_same_layer_and_unknown_edges_are_rejected() {
    let manifest = |deps: &str| {
        format!(
            "[package]\nname = \"exegpt-serve\"\n\n[dependencies]\n{deps}\n\
             serde.workspace = true\n\n[dev-dependencies]\nexegpt-scenario.workspace = true\n"
        )
    };
    let ok = violations("serve", &manifest("exegpt.workspace = true\nexegpt-runner = \"0.1\""));
    assert!(ok.is_empty(), "downward edges and dev-dependencies pass: {ok:?}");
    let up = violations("serve", &manifest("exegpt-fleet.workspace = true"));
    assert_eq!(up, ["`serve` (layer 8) depends on `fleet` (layer 9)"]);
    let same = violations("serve", &manifest("exegpt-baselines = { path = \"../baselines\" }"));
    assert_eq!(same, ["`serve` (layer 8) depends on `baselines` (layer 8)"]);
    let unknown = violations("serve", &manifest("exegpt-mystery.workspace = true"));
    assert_eq!(unknown, ["`serve` depends on `exegpt-mystery`, which has no declared layer"]);
    let undeclared = violations("newcomer", "[package]\nname = \"exegpt-newcomer\"\n");
    assert_eq!(undeclared, ["crate `newcomer` has no declared layer"]);
}

#[test]
fn every_vendored_shim_is_used() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |path: &Path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let root_manifest = read(&root.join("Cargo.toml"));
    let mut manifests = vec![root_manifest.clone()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        manifests.push(read(&entry.expect("directory entry").path().join("Cargo.toml")));
    }
    let manifests: Vec<&str> = manifests.iter().map(String::as_str).collect();
    let unused = unused_shims(&root_manifest, &manifests);
    assert!(unused.is_empty(), "vendored shims no workspace crate uses: {unused:?}");
}

#[test]
fn an_unused_shim_is_reported() {
    let root = "[workspace]\nmembers = [\"crates/*\"]\n\n[workspace.dependencies]\n\
                rand = { path = \"third_party/rand\" }\n\
                idle = { path = \"third_party/idle\" }\n\
                exegpt-units = { path = \"crates/units\" }\n";
    let user = "[package]\nname = \"exegpt-units\"\n\n[dev-dependencies]\nrand.workspace = true\n";
    assert_eq!(unused_shims(root, &[user]), ["idle"]);
    assert_eq!(unused_shims(root, &[root]), ["rand", "idle"], "the declaration is no use");
}

#[test]
fn every_dependency_is_named_in_its_source() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = Vec::new();
    for (dir, _) in LAYERS {
        let manifest = std::fs::read_to_string(crates.join(dir).join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("crates/{dir}/Cargo.toml: {e}"));
        let source = source_under(&crates.join(dir).join("src"));
        found.extend(
            unused_dependencies(&manifest, &source).into_iter().map(|dep| format!("{dir}: {dep}")),
        );
    }
    assert!(found.is_empty(), "[dependencies] entries no src/ file names:\n{}", found.join("\n"));
}

#[test]
fn an_unused_dependency_is_reported() {
    let manifest = "[package]\nname = \"exegpt-serve\"\n\n[dependencies]\n\
                    exegpt.workspace = true\nexegpt-dist.workspace = true\n\
                    serde_json = { workspace = true }\nrand.workspace = true\n\n\
                    [dev-dependencies]\nproptest.workspace = true\n";
    let source =
        "use exegpt::Engine;\nlet s = serde_json::to_string(&x);\nlet exegpt_distance = 1;\n";
    assert_eq!(unused_dependencies(manifest, source), ["exegpt-dist", "rand"]);
}

/// The names in the first column of README's examples table (the table
/// under the `| Example | What it shows |` header), in order.
fn example_rows(readme: &str) -> Vec<&str> {
    readme
        .lines()
        .skip_while(|line| !line.starts_with("| Example |"))
        .skip(2)
        .take_while(|line| line.starts_with('|'))
        .filter_map(|row| row.split('|').nth(1))
        .map(|cell| cell.trim().trim_matches('`'))
        .collect()
}

/// Examples without a README row, and rows without an example.
fn example_table_mismatches(readme: &str, examples: &[&str]) -> Vec<String> {
    let rows = example_rows(readme);
    let missing = examples
        .iter()
        .filter(|name| !rows.contains(name))
        .map(|name| format!("examples/{name}.rs has no README row"));
    let stale = rows
        .iter()
        .filter(|row| !examples.contains(row))
        .map(|row| format!("README row `{row}` names no example"));
    missing.chain(stale).collect()
}

#[test]
fn every_example_has_a_readme_row_and_every_row_an_example() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md is readable");
    let mut examples = Vec::new();
    for entry in std::fs::read_dir(root.join("examples")).expect("examples/ is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|ext| ext == "rs") {
            let stem = path.file_stem().and_then(|s| s.to_str()).expect("UTF-8 file name");
            examples.push(stem.to_owned());
        }
    }
    let examples: Vec<&str> = examples.iter().map(String::as_str).collect();
    assert!(!examples.is_empty(), "examples/ holds examples");
    let found = example_table_mismatches(&readme, &examples);
    assert!(found.is_empty(), "README's examples table is out of date:\n{}", found.join("\n"));
}

#[test]
fn a_stale_or_missing_example_row_is_reported() {
    let readme = "Intro.\n\n| Example | What it shows |\n|---|---|\n\
                  | `quickstart` | a start |\n| `gone` | removed |\n\n| Other | table |\n\
                  |---|---|\n| `unrelated` | row |\n";
    assert_eq!(example_rows(readme), ["quickstart", "gone"]);
    assert_eq!(
        example_table_mismatches(readme, &["quickstart", "fresh"]),
        ["examples/fresh.rs has no README row", "README row `gone` names no example"]
    );
}

/// The `(crate, name)` pairs the "Modules" column of DESIGN.md's experiment
/// table (under the `| Exp. | Paper content |` header) spells as
/// `crate::name` or `crate::{a,b}`, parenthesised text ignored. Bare crate
/// names are skipped.
fn experiment_modules(design: &str) -> Vec<(String, String)> {
    let mut rows = design.lines().skip_while(|line| !line.starts_with("| Exp. | Paper content |"));
    let header: Vec<&str> =
        rows.next().expect("DESIGN.md has the experiment table").split('|').collect();
    let column = header.iter().position(|cell| cell.trim() == "Modules").expect("a Modules column");
    let mut found = Vec::new();
    for row in rows.skip(1).take_while(|line| line.starts_with('|')) {
        let cell = row.split('|').nth(column).unwrap_or("");
        // Drop parenthesised text, then split at the commas outside braces.
        let (mut text, mut parens) = (String::new(), 0usize);
        for c in cell.chars() {
            match c {
                '(' => parens += 1,
                ')' => parens = parens.saturating_sub(1),
                _ if parens == 0 => text.push(c),
                _ => {}
            }
        }
        let (mut entries, mut entry, mut braces) = (Vec::new(), String::new(), 0usize);
        for c in text.chars().chain([',']) {
            match c {
                '{' => braces += 1,
                '}' => braces = braces.saturating_sub(1),
                ',' if braces == 0 => {
                    entries.push(std::mem::take(&mut entry));
                    continue;
                }
                _ => {}
            }
            entry.push(c);
        }
        for entry in &entries {
            let Some((krate, path)) = entry.trim().split_once("::") else { continue };
            let names: Vec<&str> = match path.strip_prefix('{') {
                Some(list) => list.trim_end_matches('}').split(',').collect(),
                None => path.split("::").take(1).collect(),
            };
            found.extend(names.iter().map(|name| (krate.to_owned(), name.trim().to_owned())));
        }
    }
    found
}

/// The entries of `modules` that are neither a file
/// `crates/<crate>/src/<name>.rs` nor a `pub` fn, struct, enum or trait in
/// that crate's `src/`, as `crate::name`.
fn missing_modules(crates: &Path, modules: &[(String, String)]) -> Vec<String> {
    modules
        .iter()
        .filter(|(krate, name)| {
            let src = crates.join(krate).join("src");
            if !src.is_dir() {
                return true;
            }
            if src.join(format!("{name}.rs")).is_file() {
                return false;
            }
            let source = source_under(&src);
            !["fn", "struct", "enum", "trait"]
                .iter()
                .any(|kind| names(&source, &format!("pub {kind} {name}")))
        })
        .map(|(krate, name)| format!("{krate}::{name}"))
        .collect()
}

#[test]
fn every_experiment_table_module_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is readable");
    let modules = experiment_modules(&design);
    assert!(modules.len() > 10, "the Modules column names modules: {modules:?}");
    let missing = missing_modules(&root.join("crates"), &modules);
    assert!(
        missing.is_empty(),
        "DESIGN.md's experiment table names what does not exist: {missing:?}"
    );
}

#[test]
fn a_missing_experiment_module_is_reported() {
    let design = "| Exp. | Paper content | Modules | By |\n|---|---|---|---|\n\
                  | Fig. 1 | a | core::scheduler, sim (and runner::gone), runner::{kv,stats} | x |\n\
                  | Fig. 2 | b | runner::Runner, dist::skew_normal, nocrate::x | y |\n\n| Other |\n";
    let modules = experiment_modules(design);
    let pairs: Vec<String> = modules.iter().map(|(k, n)| format!("{k}::{n}")).collect();
    assert_eq!(
        pairs,
        [
            "core::scheduler",
            "runner::kv",
            "runner::stats",
            "runner::Runner",
            "dist::skew_normal",
            "nocrate::x"
        ]
    );
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    assert_eq!(missing_modules(&crates, &modules), ["runner::stats", "nocrate::x"]);
}
