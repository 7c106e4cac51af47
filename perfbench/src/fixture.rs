//! Fixture generation: a `scale-regime` `.mbds` made from the seed by the
//! library's own simulator and streaming writer. The events are those
//! `mbssl synth --preset scale --users N --seed S` generates, written
//! without the k-core. Fixtures live in a per-process directory inside the
//! checkout and are removed when the run ends; none is committed.

use std::path::{Path, PathBuf};

use mbssl_data::format::{FormatError, MbdsStreamWriter};
use mbssl_data::synthetic::SyntheticConfig;

/// A per-process scratch directory inside the checkout, removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create() -> Result<ScratchDir, String> {
        let dir = Path::new(".bench_build")
            .join("perfbench-fixtures")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generates the `scale-regime` log for `users` users from `seed` and
/// writes it as `.mbds`. Returns the path.
pub fn scale_mbds(dir: &Path, users: usize, seed: u64) -> Result<PathBuf, String> {
    let config = SyntheticConfig::scale_regime(users, seed);
    let out = dir.join(format!("scale-{users}.mbds"));
    let fail = |e: FormatError| format!("writing {}: {e}", out.display());
    let mut writer = MbdsStreamWriter::create(
        &out,
        &config.name,
        &config.behavior_set(),
        config.target_behavior,
    )
    .map_err(fail)?;
    let mut result = Ok(());
    config.for_each_user(|_, seq, _noise| {
        if result.is_ok() {
            result = writer.append_user_seq(&seq);
        }
    });
    result.map_err(fail)?;
    writer.finish(config.num_items).map_err(fail)?;
    Ok(out)
}
