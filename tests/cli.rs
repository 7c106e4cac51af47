//! End-to-end tests of the `mbssl` CLI binary: dataset stats → train →
//! evaluate → recommend on a generated TSV log.

use std::path::PathBuf;
use std::process::Command;

use mbssl::data::io::save_tsv;
use mbssl::data::synthetic::SyntheticConfig;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_mbssl")
}

fn setup_log(dir: &std::path::Path) -> PathBuf {
    let dataset = SyntheticConfig::tmall_like(5).scaled(0.05).generate().dataset;
    let path = dir.join("log.tsv");
    save_tsv(&dataset, &path).expect("write TSV");
    path
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("spawn mbssl CLI");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn cli_full_workflow() {
    let dir = std::env::temp_dir().join("mbssl_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let log = setup_log(&dir);
    let log_s = log.to_str().unwrap();
    let ckpt = dir.join("model.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();

    // dataset stats
    let (ok, text) = run(&["dataset", "stats", log_s, "--target", "favorite"]);
    assert!(ok, "stats failed: {text}");
    assert!(text.contains("users"));
    assert!(text.contains("favorite"));

    // train (tiny settings)
    let (ok, text) = run(&[
        "train", "--data", log_s, "--target", "favorite", "--model", ckpt_s,
        "--epochs", "2", "--dim", "16", "--interests", "2",
    ]);
    assert!(ok, "train failed: {text}");
    assert!(ckpt.exists(), "checkpoint not written");

    // evaluate: the model shape comes from the checkpoint
    let (ok, text) = run(&[
        "evaluate", "--data", log_s, "--target", "favorite", "--model", ckpt_s,
    ]);
    assert!(ok, "evaluate failed: {text}");
    assert!(text.contains("HR@10"), "no metrics printed: {text}");

    // recommend
    let (ok, text) = run(&[
        "recommend", "--data", log_s, "--target", "favorite", "--model", ckpt_s,
        "--user", "0", "--top", "5",
    ]);
    assert!(ok, "recommend failed: {text}");
    assert!(text.contains("1."), "no ranked list printed: {text}");

    // index build, twice over the same path, then stats
    for _ in 0..2 {
        let (ok, text) = run(&[
            "index", "build", "--data", log_s, "--target", "favorite", "--model", ckpt_s,
            "--nlist", "6",
        ]);
        assert!(ok, "index build failed: {text}");
        assert!(text.contains("k-means: ") && text.contains(" passes, "), "no build counts: {text}");
    }
    let ivf = format!("{ckpt_s}.ivf");
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".tmp"))
        .collect();
    assert!(leftovers.is_empty(), "temp files left: {leftovers:?}");
    let (ok, text) = run(&["index", "stats", &ivf]);
    assert!(ok, "index stats failed: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// `mbssl serve --replay`: the reply lines for a user are the lines
/// `mbssl recommend` prints for that user, and hostile lines get the
/// protocol's error with their line number or a full reply, never a panic.
#[test]
fn cli_serve_replay_matches_recommend_and_rejects_bad_lines() {
    let dir = std::env::temp_dir().join("mbssl_cli_serve_test");
    std::fs::create_dir_all(&dir).unwrap();
    let log = setup_log(&dir);
    let ckpt = dir.join("model.ckpt");
    let common = [
        "--data", log.to_str().unwrap(), "--target", "favorite", "--model",
        ckpt.to_str().unwrap(),
    ];
    let train = ["train", "--epochs", "1", "--dim", "16", "--interests", "2"];
    let (ok, text) = run(&[&train[..], &common].concat());
    assert!(ok, "train failed: {text}");
    let stdout = |args: &[&str]| {
        let out = Command::new(bin()).args(args).output().expect("spawn mbssl CLI");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned(), err)
    };
    let serve = |replay: &str, extra: &[&str]| {
        let path = dir.join("replay.txt");
        std::fs::write(&path, replay).unwrap();
        stdout(&[&["serve", "--replay", path.to_str().unwrap()][..], &common, extra].concat())
    };

    let replay = "rec 3 5\n# comment\n\nrec 7 5\nevent 7 1 click\nquit\n";
    let (ok, served, err) = serve(replay, &[]);
    assert!(ok && err.contains("clean shutdown"), "serve failed: {err}");
    let served: Vec<&str> = served.lines().collect();
    assert_eq!(served.len(), 12, "{served:?}");
    for (user, reply) in [(3, &served[..6]), (7, &served[6..])] {
        assert_eq!(reply[0], format!("top-5 recommendations for user {user}:"));
        let user = user.to_string();
        let args = [&["recommend", "--user", &user, "--top", "5"][..], &common].concat();
        let (ok, offline, err) = stdout(&args);
        assert!(ok, "recommend failed: {err}");
        assert_eq!(offline.lines().skip(1).collect::<Vec<_>>(), reply[1..], "user {user}");
    }

    for (replay, message) in [
        ("rec 3 5\n\nfrobnicate 1\n", "error: line 3: unknown serve command \"frobnicate\""),
        ("rec 3 5\nevent 3 4 dance\n", "error: line 2: unknown behavior \"dance\""),
        ("rec 3 lots\n", "error: line 1: bad top count \"lots\""),
    ] {
        let (ok, _, err) = serve(replay, &[]);
        assert!(!ok, "accepted {replay:?}");
        assert!(err.contains(message) && !err.contains("panicked"), "{replay:?}: {err}");
    }

    // A line without a newline is read only up to the protocol's cap: the
    // pending `rec` is answered, then the server stops on line 2 without
    // echoing the line back.
    let path = dir.join("replay_long.txt");
    let mut replay = b"rec 3 2\n".to_vec();
    replay.resize(replay.len() + (1 << 20), b'x');
    std::fs::write(&path, replay).unwrap();
    let args = [&["serve", "--replay", path.to_str().unwrap()][..], &common].concat();
    let out = Command::new(bin()).args(&args).output().expect("spawn mbssl CLI");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(out.stderr.len() < 10 * 1024, "stderr of {} bytes", out.stderr.len());
    assert!(err.contains("error: line 2: line longer than 8192 bytes"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    let served = String::from_utf8_lossy(&out.stdout);
    assert!(served.starts_with("top-2 recommendations for user 3:\n"), "{served}");
    assert_eq!(served.lines().count(), 3, "{served}");

    // A top count whose 4× overscan overflows still gets a full reply.
    let (ok, served, err) = serve("rec 3 4611686018427387904\n", &["--rerank", "topk:5"]);
    assert!(ok && err.contains("clean shutdown"), "{err}");
    assert_eq!(served.lines().count(), 6, "{served}");
    let huge = [&["recommend", "--user", "3", "--top", "4611686018427387904"][..], &common];
    let (ok, _, err) = stdout(&huge.concat());
    assert!(ok, "recommend with a huge top count failed: {err}");

    // A swap to a checkpoint that cannot be loaded is reported with its
    // line number, and the old engine keeps serving.
    let (ok, served, err) = serve("rec 3 2\nswap /nonexistent.ckpt\nrec 3 2\n", &[]);
    assert!(ok && err.contains("clean shutdown"), "{err}");
    assert!(err.contains("error: line 2: swap /nonexistent.ckpt: "), "{err}");
    let served: Vec<&str> = served.lines().collect();
    assert_eq!(served.len(), 6, "{served:?}");
    assert_eq!(served[..3], served[3..], "replies differ across the failed swap");

    // A swap to a checkpoint of another width works: the model is built
    // from the config the checkpoint records.
    let wide = dir.join("wide.ckpt");
    let wide_s = wide.to_str().unwrap();
    let wide_flags = ["--dim", "32", "--interests", "3", "--model", wide_s];
    let args = [&train[..3], &common[..4], &wide_flags];
    let (ok, text) = run(&args.concat());
    assert!(ok, "train failed: {text}");
    let (ok, served, err) = serve(&format!("rec 3 2\nswap {wide_s}\nrec 3 2\n"), &[]);
    assert!(ok && err.contains(&format!("serve: swapped to {wide_s} (epoch 1)")), "{err}");
    assert_eq!(served.lines().count(), 6, "{served}");

    std::fs::remove_dir_all(&dir).ok();
}

/// synth → traced train with a run ledger → trace summary/diff → report:
/// the full observability loop through the real binary.
#[test]
fn cli_trace_and_report_workflow() {
    let dir = std::env::temp_dir().join("mbssl_cli_trace_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join("synthetic.tsv");
    let log_s = log.to_str().unwrap();
    let ckpt = dir.join("model.ckpt");
    let trace = dir.join("trace.jsonl");
    let trace_s = trace.to_str().unwrap();
    let run_dir = dir.join("run0");

    // synth writes a loadable TSV.
    let (ok, text) = run(&["synth", "--out", log_s, "--scale", "0.05", "--seed", "11"]);
    assert!(ok, "synth failed: {text}");
    assert!(log.exists());

    // Traced training that also writes a run ledger.
    let (ok, text) = run(&[
        "train", "--data", log_s, "--target", "purchase", "--model",
        ckpt.to_str().unwrap(), "--epochs", "2", "--dim", "16", "--interests", "2",
        "--trace", &format!("jsonl:{trace_s}"), "--run-dir", run_dir.to_str().unwrap(),
    ]);
    assert!(ok, "traced train failed: {text}");
    assert!(trace.exists(), "no trace written");
    assert!(run_dir.join("manifest.json").exists(), "no manifest written");
    assert!(run_dir.join("metrics.jsonl").exists(), "no metrics written");

    // trace summary renders the hierarchy and exports collapsed stacks.
    let folded = dir.join("trace.folded");
    let (ok, text) = run(&[
        "trace", "summary", trace_s, "--collapsed", folded.to_str().unwrap(),
    ]);
    assert!(ok, "trace summary failed: {text}");
    assert!(text.contains("trainer.train_step"), "{text}");
    assert!(text.contains("self%"), "{text}");
    let folded_text = std::fs::read_to_string(&folded).unwrap();
    assert!(
        folded_text.contains("trainer.epoch;trainer.train_step"),
        "collapsed stacks lack the epoch>step edge:\n{folded_text}"
    );

    // Identical traces diff clean (exit 0); a synthetically slowed trace
    // must fail the gate (exit 1).
    let (ok, text) = run(&["trace", "diff", trace_s, trace_s]);
    assert!(ok, "identical traces flagged as regression: {text}");
    assert!(text.contains("0 regression(s)"), "{text}");

    let slowed = dir.join("slowed.jsonl");
    let slowed_text = std::fs::read_to_string(&trace)
        .unwrap()
        .lines()
        .map(|line| {
            if line.contains("\"label\":\"trainer.train_step\"") {
                // Double total_ns on the hot span: a 100% mean regression.
                let mut out = String::new();
                for part in line.split(",\"total_ns\":") {
                    if out.is_empty() {
                        out.push_str(part);
                    } else {
                        let digits: String =
                            part.chars().take_while(|c| c.is_ascii_digit()).collect();
                        let rest = &part[digits.len()..];
                        let doubled = digits.parse::<u64>().unwrap() * 2;
                        out.push_str(&format!(",\"total_ns\":{doubled}{rest}"));
                    }
                }
                out
            } else {
                line.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&slowed, slowed_text).unwrap();
    let (ok, text) = run(&["trace", "diff", trace_s, slowed.to_str().unwrap(), "--tol", "5"]);
    assert!(!ok, "slowed trace passed the diff gate: {text}");
    assert!(text.contains("regressed"), "{text}");
    assert!(text.contains("trainer.train_step"), "{text}");

    // report renders curves + comparison over two run dirs.
    let run_dir2 = dir.join("run1");
    let (ok, text) = run(&[
        "train", "--data", log_s, "--target", "purchase", "--model",
        ckpt.to_str().unwrap(), "--epochs", "2", "--dim", "16", "--interests", "2",
        "--run-dir", run_dir2.to_str().unwrap(),
    ]);
    assert!(ok, "second run failed: {text}");
    let (ok, text) = run(&[
        "report", run_dir.to_str().unwrap(), run_dir2.to_str().unwrap(),
    ]);
    assert!(ok, "report failed: {text}");
    assert!(text.contains("run run0:"), "{text}");
    assert!(text.contains("run run1:"), "{text}");
    assert!(text.contains("NDCG@10"), "{text}");
    assert!(text.contains("items/s"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

/// A command reads only the files its flags name: an `.ivf` next to the
/// checkpoint and a `.mbds` next to the log change nothing until `--index`
/// or `--data` names them, and the retired ANN variables are refused.
#[test]
fn cli_reads_only_named_inputs() {
    let dir = std::env::temp_dir().join("mbssl_cli_named_inputs_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let log = setup_log(&dir);
    let ckpt = dir.join("model.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let common = ["--data", log.to_str().unwrap(), "--target", "favorite", "--model", ckpt_s];
    let output = |args: &[&str], env: &[(&str, &str)]| {
        let out = Command::new(bin())
            .args(args)
            .envs(env.iter().copied())
            .output()
            .expect("spawn mbssl CLI");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned(), err)
    };
    let train = ["train", "--epochs", "1", "--dim", "16", "--interests", "2"];
    let (ok, text) = run(&[&train[..], &common].concat());
    assert!(ok, "train failed: {text}");
    let recommend = [&["recommend", "--user", "3", "--top", "5"][..], &common].concat();
    let (ok, before, err) = output(&recommend, &[]);
    assert!(ok, "recommend failed: {err}");

    // Next to the inputs: the checkpoint's index, and a `.mbds` of another log.
    let (ok, text) = run(&[&["index", "build", "--nlist", "6"][..], &common].concat());
    assert!(ok, "index build failed: {text}");
    let other = dir.join("other.tsv");
    save_tsv(&SyntheticConfig::tmall_like(6).scaled(0.05).generate().dataset, &other).unwrap();
    let sibling = format!("{}.mbds", log.to_str().unwrap());
    let convert = ["convert", "--data", other.to_str().unwrap(), "--target", "favorite"];
    let (ok, text) = run(&[&convert[..], &["--out", &sibling]].concat());
    assert!(ok, "convert failed: {text}");
    let (ok, after, err) = output(&recommend, &[]);
    assert!(ok, "recommend failed: {err}");
    assert_eq!(after, before, "an unnamed file changed the reply: {err}");
    assert!(!err.contains("two-stage") && !err.contains(".mbds"), "{err}");

    // Named, the index is attached, and a serve `swap` attaches it again.
    let ivf = format!("{ckpt_s}.ivf");
    let (ok, _, err) = output(&[&recommend[..], &["--index", &ivf]].concat(), &[]);
    assert!(ok && err.contains(&format!("two-stage retrieval via {ivf}")), "{err}");
    let replay = dir.join("replay.txt");
    std::fs::write(&replay, format!("rec 3 5\nswap {ckpt_s}\nrec 3 5\n")).unwrap();
    let serve = ["serve", "--replay", replay.to_str().unwrap(), "--index", &ivf];
    let (ok, _, err) = output(&[&serve[..], &common].concat(), &[]);
    assert!(ok && err.matches("two-stage retrieval via").count() == 2, "{err}");

    for (var, value) in [
        ("MBSSL_ANN", "off"),
        ("MBSSL_ANN", "0"),
        ("MBSSL_ANN", "none"),
        ("MBSSL_ANN_NLIST", "8"),
        ("MBSSL_ANN_NPROBE", "2"),
    ] {
        let (ok, _, err) = output(&recommend, &[(var, value)]);
        assert!(!ok, "{var}={value} was accepted");
        assert_eq!(err.lines().count(), 1, "{err}");
        assert!(err.contains(&format!("{var} is retired: ")), "{err}");
    }
    let (ok, again, err) = output(&recommend, &[("MBSSL_ANN", "on")]);
    assert!(ok && again == before, "MBSSL_ANN=on: {err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_rejects_bad_input() {
    let (ok, text) = run(&["train", "--target", "favorite"]);
    assert!(!ok);
    assert!(text.contains("missing --data") || text.contains("error"), "{text}");

    let (ok, _) = run(&["nonsense"]);
    assert!(!ok);

    // trace/report argument errors fail cleanly with a usage hint.
    let (ok, text) = run(&["trace", "summary"]);
    assert!(!ok);
    assert!(text.contains("missing trace JSONL file"), "{text}");
    let (ok, text) = run(&["trace", "frobnicate", "x.jsonl"]);
    assert!(!ok);
    assert!(text.contains("unknown trace subcommand"), "{text}");
    let (ok, text) = run(&["report"]);
    assert!(!ok);
    assert!(text.contains("RUN_DIR"), "{text}");

    let dir = std::env::temp_dir().join("mbssl_cli_test_bad");
    std::fs::create_dir_all(&dir).unwrap();
    let log = setup_log(&dir);
    // Mismatched checkpoint dims must fail cleanly, not panic.
    let ckpt = dir.join("never_written.ckpt");
    let (ok, text) = run(&[
        "evaluate", "--data", log.to_str().unwrap(), "--target", "favorite",
        "--model", ckpt.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(text.contains("error"), "{text}");
    // A zero top count and a model shape the model cannot take are flag
    // errors, not panics.
    for (command, flags, message) in [
        ("recommend", ["--top", "0"], "bad --top"),
        ("train", ["--dim", "15"], "bad --dim/--interests: dim 15"),
    ] {
        let args = [
            &[command, "--data", log.to_str().unwrap(), "--target", "favorite"][..],
            &["--model", ckpt.to_str().unwrap(), "--user", "0"],
            &flags,
        ];
        let (ok, text) = run(&args.concat());
        assert!(!ok && text.contains(message) && !text.contains("panicked"), "{text}");
    }
    assert!(!ckpt.exists(), "a rejected train wrote a checkpoint");

    // A direct-to-.mbds synth whose conversion fails (the output is a
    // directory) leaves no intermediate TSV behind.
    let blocked = dir.join("blocked.mbds");
    std::fs::create_dir(&blocked).unwrap();
    let (ok, text) = run(&["synth", "--out", blocked.to_str().unwrap(), "--scale", "0.05"]);
    assert!(!ok && text.contains("error: converting"), "{text}");
    let left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.contains(".part") || name.ends_with(".tmp"))
        .collect();
    assert!(left.is_empty(), "temp files left: {left:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_refuses_retired_quant_option() {
    let dir = std::env::temp_dir().join("mbssl_cli_test_quant");
    std::fs::create_dir_all(&dir).unwrap();
    let log = setup_log(&dir);
    let stats = |quant: &str| {
        let out = Command::new(bin())
            .args(["dataset", "stats", log.to_str().unwrap(), "--target", "favorite"])
            .env("MBSSL_QUANT", quant)
            .output()
            .expect("spawn mbssl CLI");
        (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
    };
    let (ok, err) = stats("i8");
    assert!(!ok, "MBSSL_QUANT=i8 was accepted");
    assert_eq!(err.lines().count(), 1, "{err}");
    assert!(err.contains("MBSSL_QUANT is retired"), "{err}");
    assert!(err.contains("exact catalog through its i8 screen (DESIGN.md §13)"), "{err}");
    let (ok, err) = stats("off");
    assert!(ok, "MBSSL_QUANT=off failed: {err}");
    std::fs::remove_dir_all(&dir).ok();
}
