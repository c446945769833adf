//! Multi-file loading: `import` items, the loaders, and the
//! [`SourceMap`] that attributes diagnostics to files.
//!
//! A `.sq` file may begin with `import name;` items. Each one brings
//! every module of the unit `name` (for the filesystem loader, the
//! file `name.sq` resolved against the importing file's directory,
//! then the search path, then `lib/`) into the importing file's
//! scope. This module only loads, modeled on Q#'s `qsc_frontend`:
//!
//! 1. **per-file parse** — each file is added to the [`SourceMap`],
//!    which gives it a global offset, and parses straight onto that
//!    offset, so one [`Diagnostic`] type serves every file and
//!    [`SourceMap::render`] attributes each error to its file.
//! 2. **import-graph build** — imports load depth-first in
//!    declaration order. A unit is identified by the loader's
//!    canonical key, so diamond imports load once, and a key already
//!    on the DFS stack is an import cycle, reported with the chain.
//!
//! The loaded units (the root first, each with its file name, unit
//! name and direct imports) then go to the one resolver in
//! [`mod@crate::lower`], which [`crate::parse_program`] also runs on
//! its single file: module names are global across the units, a file
//! sees only its own modules and those of units it imports directly,
//! the `entry` module must live in the root file, and imported modules
//! that nothing in the root reaches are pruned. An import-free root
//! file therefore gives exactly the result of [`crate::parse_program`],
//! and the lowered program's canonical listing
//! ([`square_qir::pretty::program_listing`]) is the flattened
//! single-file form — the lossless multi-file round trip.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};

use square_qir::Program;

use crate::ast::SourceProgram;
use crate::diag::{line_starts, render_one, Diagnostic, Span};
use crate::lower::{resolve, Unit};
use crate::parser::parse_at;

/// Identifies one loaded file within a [`SourceMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(usize);

/// One loaded file: display name, full source, and the global offset
/// of its first byte.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display name used in diagnostics (the path as resolved).
    pub name: String,
    /// Full source text.
    pub source: String,
    /// Global offset of this file's byte 0 (files occupy disjoint,
    /// ascending ranges separated by a one-byte gap).
    base: usize,
}

/// The set of files a multi-file parse loaded, on one global span
/// axis: every [`Diagnostic`] produced by [`parse_files`] carries a
/// global span that [`SourceMap::locate`] maps back to a file and a
/// file-local span.
#[derive(Debug, Clone, Default)]
pub struct SourceMap {
    files: Vec<SourceFile>,
}

impl SourceMap {
    fn add(&mut self, name: String, source: String) -> FileId {
        let base = self
            .files
            .last()
            .map(|f| f.base + f.source.len() + 1)
            .unwrap_or(0);
        self.files.push(SourceFile { name, source, base });
        FileId(self.files.len() - 1)
    }

    /// The file registered under `id`.
    pub fn file(&self, id: FileId) -> &SourceFile {
        &self.files[id.0]
    }

    /// Number of loaded files (the root counts, so ≥ 1 after a parse).
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when no file has been loaded yet.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Maps a global span back to the file containing it and the
    /// file-local span.
    pub fn locate(&self, span: Span) -> (FileId, Span) {
        let idx = self
            .files
            .partition_point(|f| f.base <= span.start)
            .saturating_sub(1);
        let f = &self.files[idx];
        let local = |o: usize| o.saturating_sub(f.base).min(f.source.len());
        (FileId(idx), Span::new(local(span.start), local(span.end)))
    }

    /// Renders diagnostics with per-file attribution: each one is
    /// located and rendered against its own file's source and name
    /// (the multi-file counterpart of [`crate::render`]).
    pub fn render(&self, diags: &[Diagnostic]) -> String {
        let mut lines: Vec<Option<Vec<usize>>> = vec![None; self.files.len()];
        let mut out = String::new();
        for (i, d) in diags.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            if self.files.is_empty() {
                out.push_str(&format!("error: {d}\n"));
                continue;
            }
            let (fid, local) = self.locate(d.span);
            let f = self.file(fid);
            let index = lines[fid.0].get_or_insert_with(|| line_starts(&f.source));
            render_one(&mut out, &f.source, index, &f.name, d, local);
        }
        out
    }
}

/// A file a [`ModuleLoader`] resolved for an `import name;` item.
#[derive(Debug, Clone)]
pub struct LoadedFile {
    /// Canonical identity of the file — two imports that resolve to
    /// the same key load one unit (and a key already being loaded is
    /// an import cycle). The filesystem loader canonicalizes paths;
    /// the in-memory loader uses the unit name itself.
    pub key: String,
    /// Display name for diagnostics (e.g. `lib/std.sq`).
    pub name: String,
    /// Full source text.
    pub source: String,
}

/// Resolves `import name;` items to source files.
pub trait ModuleLoader {
    /// Resolves the unit `name` as imported from the file identified
    /// by `importer_key` (the [`LoadedFile::key`] of the importing
    /// file; for the root file, its name as given).
    ///
    /// # Errors
    ///
    /// A human-readable reason (e.g. the candidate paths tried); it is
    /// appended to the "cannot resolve import" diagnostic.
    fn load(&self, name: &str, importer_key: &str) -> Result<LoadedFile, String>;
}

/// Filesystem loader: `import name;` resolves to `name.sq` in the
/// importing file's directory first, then in each search-path
/// directory in order. [`SearchPathLoader::with_default_lib`] appends
/// the conventional `lib/` directory, which is where the shipped
/// standard library (`lib/std.sq`) lives.
#[derive(Debug, Clone, Default)]
pub struct SearchPathLoader {
    search: Vec<PathBuf>,
}

impl SearchPathLoader {
    /// A loader over the given search directories (tried in order,
    /// after the importing file's own directory).
    pub fn new(search: Vec<PathBuf>) -> SearchPathLoader {
        SearchPathLoader { search }
    }

    /// Like [`SearchPathLoader::new`], with `lib/` (relative to the
    /// working directory) appended as the final fallback.
    pub fn with_default_lib(mut search: Vec<PathBuf>) -> SearchPathLoader {
        search.push(PathBuf::from("lib"));
        SearchPathLoader { search }
    }
}

/// The filesystem loader's key for the file at `path`: its canonical
/// path, or `path` as given when it cannot be canonicalized.
fn fs_key(path: &Path) -> String {
    std::fs::canonicalize(path)
        .unwrap_or_else(|_| path.to_path_buf())
        .display()
        .to_string()
}

impl ModuleLoader for SearchPathLoader {
    fn load(&self, name: &str, importer_key: &str) -> Result<LoadedFile, String> {
        let file_name = format!("{name}.sq");
        // A bare file name (`prog.sq`) has an empty parent: the file
        // sits in the working directory, so that is searched.
        let importer_dir = match Path::new(importer_key).parent() {
            Some(dir) if dir.as_os_str().is_empty() => Some(PathBuf::from(".")),
            dir => dir.map(Path::to_path_buf),
        };
        let mut tried = Vec::new();
        for dir in importer_dir.into_iter().chain(self.search.iter().cloned()) {
            let path = dir.join(&file_name);
            match std::fs::read_to_string(&path) {
                Ok(source) => {
                    return Ok(LoadedFile {
                        key: fs_key(&path),
                        name: path.display().to_string(),
                        source,
                    });
                }
                Err(_) => tried.push(format!("`{}`", path.display())),
            }
        }
        if tried.is_empty() {
            Err(format!("no search directories to look up `{file_name}` in"))
        } else {
            Err(format!("no file at {}", tried.join(", ")))
        }
    }
}

/// In-memory loader mapping unit names directly to source text — the
/// loader behind the multi-file property tests and the fuzzer's
/// stdlib-composition mode, where no filesystem is involved.
#[derive(Debug, Clone, Default)]
pub struct MapLoader {
    files: BTreeMap<String, String>,
}

impl MapLoader {
    /// An empty loader.
    pub fn new() -> MapLoader {
        MapLoader::default()
    }

    /// Registers `source` under the unit name `name` (imported as
    /// `import name;`), replacing any previous registration.
    pub fn insert(&mut self, name: impl Into<String>, source: impl Into<String>) {
        self.files.insert(name.into(), source.into());
    }
}

impl ModuleLoader for MapLoader {
    fn load(&self, name: &str, _importer_key: &str) -> Result<LoadedFile, String> {
        match self.files.get(name) {
            Some(source) => Ok(LoadedFile {
                key: name.to_string(),
                name: format!("{name}.sq"),
                source: source.clone(),
            }),
            None => Err(format!("no in-memory unit named `{name}`")),
        }
    }
}

/// One loaded file: its parse (spans already global) and its direct
/// imports.
struct Loaded {
    file: FileId,
    /// What the loader resolves this file's imports against: the
    /// loader's key for an imported file, the name as given for the
    /// root.
    importer: String,
    /// The name this unit is imported as (`std` for `lib/std.sq`);
    /// used in "add `import …;`" hints.
    unit_name: String,
    ast: SourceProgram,
    /// Unit index per loaded `import` item.
    deps: Vec<usize>,
}

/// Parses, resolves, and lowers a multi-file `.sq` program rooted at
/// `root_name`/`root_source`, loading `import`ed units through
/// `loader`. Returns the [`SourceMap`] of every file it loaded (for
/// file-attributed rendering via [`SourceMap::render`]) alongside the
/// result. For an import-free root this is exactly
/// [`crate::parse_program`].
///
/// # Errors
///
/// All diagnostics found — parse errors from any file, unresolvable
/// or cyclic imports, cross-file duplicate modules, an `entry` in an
/// imported file, calls to modules of units not directly imported —
/// each with a global span the returned map locates.
pub fn parse_files(
    root_name: &str,
    root_source: &str,
    loader: &dyn ModuleLoader,
) -> (SourceMap, Result<Program, Vec<Diagnostic>>) {
    let mut map = SourceMap::default();
    let mut diags = Vec::new();
    let root_id = map.add(root_name.to_string(), root_source.to_string());
    let (root_ast, parse_diags) = parse_at(root_source, 0);
    diags.extend(parse_diags);
    let root_stem = Path::new(root_name)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| root_name.to_string());
    let mut units = vec![Loaded {
        file: root_id,
        importer: root_name.to_string(),
        unit_name: root_stem,
        ast: root_ast,
        deps: Vec::new(),
    }];
    // The root is identified the way the filesystem loader identifies
    // a file, so a unit that imports the root back meets it as a cycle
    // instead of loading it a second time; an in-memory root, which
    // is no file on disk, keeps its name.
    let root_key = fs_key(Path::new(root_name));
    let mut by_key: HashMap<String, usize> = HashMap::new();
    by_key.insert(root_key.clone(), 0);
    let mut stack = vec![(root_key, root_name.to_string())];
    load_imports(
        0,
        loader,
        &mut map,
        &mut units,
        &mut by_key,
        &mut stack,
        &mut diags,
    );
    if !diags.is_empty() {
        return (map, Err(diags));
    }
    let resolved = resolve(
        &units
            .iter()
            .map(|u| Unit {
                file: &map.file(u.file).name,
                name: &u.unit_name,
                ast: &u.ast,
                imports: &u.deps,
            })
            .collect::<Vec<_>>(),
    );
    (map, resolved)
}

#[allow(clippy::too_many_arguments)]
fn load_imports(
    u: usize,
    loader: &dyn ModuleLoader,
    map: &mut SourceMap,
    units: &mut Vec<Loaded>,
    by_key: &mut HashMap<String, usize>,
    stack: &mut Vec<(String, String)>, // (canonical key, display name)
    diags: &mut Vec<Diagnostic>,
) {
    let imports = units[u].ast.imports.clone();
    let importer = units[u].importer.clone();
    for imp in &imports {
        let loaded = match loader.load(&imp.name, &importer) {
            Ok(lf) => lf,
            Err(reason) => {
                diags.push(Diagnostic::new(
                    imp.name_span,
                    format!("cannot resolve import `{}`: {reason}", imp.name),
                ));
                continue;
            }
        };
        if let Some(pos) = stack.iter().position(|(k, _)| *k == loaded.key) {
            // The cycle closes on the name its first file was loaded
            // under, so each file reads the same way in the chain.
            let mut chain: Vec<&str> = stack[pos..].iter().map(|(_, n)| n.as_str()).collect();
            chain.push(&stack[pos].1);
            diags.push(
                Diagnostic::new(imp.span, format!("import cycle: {}", chain.join(" → ")))
                    .with_help("imports must form a DAG"),
            );
            continue;
        }
        if let Some(&idx) = by_key.get(&loaded.key) {
            units[u].deps.push(idx); // diamond: already loaded once
            continue;
        }
        let fid = map.add(loaded.name.clone(), loaded.source);
        let file = map.file(fid);
        let (ast, parse_diags) = parse_at(&file.source, file.base);
        diags.extend(parse_diags);
        let idx = units.len();
        by_key.insert(loaded.key.clone(), idx);
        units.push(Loaded {
            file: fid,
            importer: loaded.key.clone(),
            unit_name: imp.name.clone(),
            ast,
            deps: Vec::new(),
        });
        units[u].deps.push(idx);
        stack.push((loaded.key, loaded.name));
        load_imports(idx, loader, map, units, by_key, stack, diags);
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "module inc(1 params, 0 ancilla) { compute { x p0; } }
module helper(1 params, 0 ancilla) { compute { x p0; } }
";

    fn loader() -> MapLoader {
        let mut l = MapLoader::new();
        l.insert("util", LIB);
        l
    }

    #[test]
    fn import_free_root_matches_parse_program() {
        let src = "entry module main(0 params, 1 ancilla) { compute { x a0; } }";
        let (map, got) = parse_files("main.sq", src, &MapLoader::new());
        assert_eq!(map.len(), 1);
        assert_eq!(got, crate::parse_program(src));
    }

    #[test]
    fn imported_modules_resolve_and_unused_ones_prune() {
        let src = "import util;
entry module main(0 params, 1 ancilla) { compute { call inc(a0); } }";
        let (map, got) = parse_files("main.sq", src, &loader());
        assert_eq!(map.len(), 2);
        let p = got.expect("resolves");
        // `helper` is never called: pruned. `inc` + `main` remain.
        assert_eq!(p.len(), 2);
        assert_eq!(p.module(p.entry()).name(), "main");
        // The flattened canonical listing is the lossless round trip.
        crate::check_roundtrip(&p).unwrap();
    }

    #[test]
    fn missing_import_diagnoses_with_loader_reason() {
        let src = "import ghost;
entry module main(0 params, 1 ancilla) { compute { x a0; } }";
        let (map, got) = parse_files("main.sq", src, &loader());
        let diags = got.unwrap_err();
        assert!(
            diags[0].message.contains("cannot resolve import `ghost`"),
            "{diags:?}"
        );
        let rendered = map.render(&diags);
        assert!(rendered.contains("--> main.sq:1:8"), "{rendered}");
    }

    #[test]
    fn import_cycles_report_the_chain() {
        let mut l = MapLoader::new();
        l.insert(
            "a",
            "import b;\nmodule am(1 params, 0 ancilla) { compute { x p0; } }",
        );
        l.insert(
            "b",
            "import a;\nmodule bm(1 params, 0 ancilla) { compute { x p0; } }",
        );
        let src = "import a;
entry module main(0 params, 1 ancilla) { compute { call am(a0); } }";
        let (_, got) = parse_files("main.sq", src, &l);
        let diags = got.unwrap_err();
        assert!(
            diags[0]
                .message
                .contains("import cycle: a.sq → b.sq → a.sq"),
            "{diags:?}"
        );
    }

    #[test]
    fn diamond_imports_load_once() {
        let mut l = MapLoader::new();
        l.insert(
            "left",
            "import base;\nmodule lm(1 params, 0 ancilla) { compute { call bm(p0); } }",
        );
        l.insert(
            "right",
            "import base;\nmodule rm(1 params, 0 ancilla) { compute { call bm(p0); } }",
        );
        l.insert(
            "base",
            "module bm(1 params, 0 ancilla) { compute { x p0; } }",
        );
        let src = "import left;
import right;
entry module main(0 params, 2 ancilla) { compute { call lm(a0); call rm(a1); } }";
        let (map, got) = parse_files("main.sq", src, &l);
        assert_eq!(map.len(), 4, "base loads once");
        let p = got.expect("diamond resolves");
        assert_eq!(p.len(), 4); // main, lm, rm, bm
    }

    #[test]
    fn cross_file_duplicate_module_names_the_other_file() {
        let src = "import util;
module inc(1 params, 0 ancilla) { compute { x p0; } }
entry module main(0 params, 1 ancilla) { compute { call inc(a0); } }";
        let (map, got) = parse_files("main.sq", src, &loader());
        let diags = got.unwrap_err();
        assert!(
            diags[0]
                .message
                .contains("`inc` is already defined in util.sq"),
            "{diags:?}"
        );
        let rendered = map.render(&diags);
        assert!(rendered.contains("--> main.sq:2:8"), "{rendered}");
    }

    #[test]
    fn entry_must_live_in_the_root_file() {
        let mut l = MapLoader::new();
        l.insert(
            "bad",
            "entry module main(0 params, 1 ancilla) { compute { x a0; } }",
        );
        let src = "import bad;
module shim(1 params, 0 ancilla) { compute { x p0; } }";
        let (_, got) = parse_files("main.sq", src, &l);
        let diags = got.unwrap_err();
        assert!(
            diags[0]
                .message
                .contains("imported file bad.sq declares `entry module main`"),
            "{diags:?}"
        );
    }

    #[test]
    fn transitive_imports_are_not_visible_without_an_import() {
        let mut l = MapLoader::new();
        l.insert(
            "mid",
            "import base;\nmodule mm(1 params, 0 ancilla) { compute { call bm(p0); } }",
        );
        l.insert(
            "base",
            "module bm(1 params, 0 ancilla) { compute { x p0; } }",
        );
        let src = "import mid;
entry module main(0 params, 1 ancilla) { compute { call bm(a0); } }";
        let (_, got) = parse_files("main.sq", src, &l);
        let diags = got.unwrap_err();
        assert!(
            diags[0]
                .message
                .contains("module `bm` is defined in base.sq, which main.sq does not import"),
            "{diags:?}"
        );
        assert_eq!(
            diags[0].help.as_deref(),
            Some("add `import base;` at the top of main.sq")
        );
    }

    #[test]
    fn parse_errors_in_imported_files_render_against_that_file() {
        let mut l = MapLoader::new();
        l.insert("broken", "module oops(1 params 0 ancilla) { }");
        let src = "import broken;
entry module main(0 params, 1 ancilla) { compute { x a0; } }";
        let (map, got) = parse_files("main.sq", src, &l);
        let diags = got.unwrap_err();
        let rendered = map.render(&diags);
        assert!(rendered.contains("--> broken.sq:1:"), "{rendered}");
    }
}
