//! Regenerates the paper's evaluation (§4) in paper order: Table 1,
//! Figs. 3–10 (rows that share a class and a size print from one sweep)
//! and the Fig. 11 handover. `--figure table1|fig3…fig11`, repeatable,
//! prints only those. Stdout is deterministic; the banner and the wall
//! time go to stderr.

use mpquic_harness::experiments::ClassResults;
use mpquic_harness::figures::{sweeps, Artefact};
use mpquic_harness::report::{print_figure, print_handover, print_table1, CliArgs};
use mpquic_harness::{run_class_sweep, HandoverConfig};

fn main() {
    let args = CliArgs::parse();
    let t0 = std::time::Instant::now();
    let plan = sweeps(&args.figures, args.size);
    eprintln!("{} sweep(s) of {} scenarios", plan.len(), args.scenarios);
    let mut results: Vec<Option<ClassResults>> = vec![None; plan.len()];
    for (i, artefact) in args.figures.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match artefact {
            Artefact::Table1 => print_table1(),
            Artefact::Swept(figure) => {
                let (class, size) = (figure.class, figure.size(args.size));
                let at = plan.iter().position(|&s| s == (class, size));
                let results = results[at.expect("planned")]
                    .get_or_insert_with(|| run_class_sweep(&args.sweep(class, size)));
                print_figure(figure, size, results);
            }
            Artefact::Handover => print_handover(&HandoverConfig::default()),
        }
    }
    eprintln!("total wall time: {:.1?}", t0.elapsed());
}
