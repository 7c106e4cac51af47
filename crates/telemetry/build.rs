//! Embeds the git revision at compile time (`MBSSL_BUILD_GIT_REV`) so
//! traces and run ledgers cut by a binary stamp the revision it was built
//! from — not whatever repository the process happens to be started in,
//! which is what the old runtime `git rev-parse` subprocess reported. At
//! runtime `MBSSL_GIT_REV` overrides the embedded value (see `git_rev`).

use std::path::Path;
use std::process::Command;

fn main() {
    println!("cargo:rerun-if-env-changed=MBSSL_GIT_REV");
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_default();
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .current_dir(&manifest_dir)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    };
    // Re-run when HEAD moves so the embedded rev stays current: watch the
    // HEAD file git itself reads (in a linked worktree `.git` is a file,
    // so `<root>/.git/HEAD` does not exist) and, when HEAD names a branch,
    // that branch's ref, which a commit rewrites. Cargo reruns the script
    // on every build while a watched path is missing, so only existing
    // paths are emitted; outside a git checkout nothing is.
    let mut watched = vec![git(&["rev-parse", "--git-path", "HEAD"])];
    if let Some(branch) = git(&["symbolic-ref", "-q", "HEAD"]) {
        watched.push(git(&["rev-parse", "--git-path", &branch]));
    }
    for path in watched.into_iter().flatten() {
        let path = Path::new(&manifest_dir).join(path);
        if path.exists() {
            println!("cargo:rerun-if-changed={}", path.display());
        }
    }
    if let Some(rev) = git(&["rev-parse", "HEAD"]) {
        println!("cargo:rustc-env=MBSSL_BUILD_GIT_REV={rev}");
    }
}
