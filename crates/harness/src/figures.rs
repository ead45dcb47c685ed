//! The paper's evaluation (§4) as one table. A swept figure (Figs.
//! 3–10) is one [`Figure`] row: its title is derived from the row and
//! the size run, its claim is written here only, and [`sweeps`] gives
//! the rows that share a class and a size one sweep. [`Artefact`] adds
//! Table 1 and the Fig. 11 handover, under the names `--figure` takes.

use mpquic_expdesign::ExperimentClass;

/// How a swept figure presents its class's results.
#[derive(Debug, Clone, Copy)]
pub enum View {
    /// CDFs of the TCP/QUIC and MPTCP/MPQUIC download-time ratios.
    Ratio,
    /// Box summaries of the experimental aggregation benefit.
    Benefit,
}

/// One swept figure of §4.
#[derive(Debug)]
pub struct Figure {
    /// The paper's figure number.
    pub number: u8,
    /// The experiment class its scenarios come from.
    pub class: ExperimentClass,
    /// The paper's response size in bytes.
    pub paper_size: usize,
    /// What it plots.
    pub view: View,
    /// The paper's claim, printed on the `paper:` line.
    pub claim: &'static str,
}

/// §4.1's long transfers, which `--size` scales.
const LONG: usize = 20 << 20;
/// §4.2's short transfers, pinned: the handshake decides them.
const SHORT: usize = 256 << 10;

/// Figs. 3–10, in paper order: one row per figure, laid out as a table.
#[rustfmt::skip]
pub static FIGURES: [Figure; 8] = [
    Figure { number: 3, class: ExperimentClass::LowBdpNoLoss, paper_size: LONG, view: View::Ratio,
        claim: "single-path TCP and QUIC similar; MPQUIC faster than MPTCP in 89% of scenarios" },
    Figure { number: 4, class: ExperimentClass::LowBdpNoLoss, paper_size: LONG, view: View::Benefit,
        claim: "MPQUIC reaches higher aggregation in 77% of scenarios vs 45% for MPTCP; MPQUIC less affected by starting on the worst path" },
    Figure { number: 5, class: ExperimentClass::LowBdpLosses, paper_size: LONG, view: View::Ratio,
        claim: "(MP)QUIC reacts faster than (MP)TCP to random losses; QUIC nearly always ahead" },
    Figure { number: 6, class: ExperimentClass::LowBdpLosses, paper_size: LONG, view: View::Benefit,
        claim: "multipath can still be advantageous for QUIC in lossy environments, with more goodput variance" },
    Figure { number: 7, class: ExperimentClass::HighBdpNoLoss, paper_size: LONG, view: View::Benefit,
        claim: "multipath beneficial in 58% of scenarios for QUIC vs 20% for TCP (bufferbloat + receive-window HoL)" },
    Figure { number: 8, class: ExperimentClass::HighBdpLosses, paper_size: LONG, view: View::Ratio,
        claim: "QUIC performs better than TCP in high-BDP environments when there are random losses" },
    Figure { number: 9, class: ExperimentClass::LowBdpNoLoss, paper_size: SHORT, view: View::Ratio,
        claim: "QUIC faster thanks to its 1-RTT secure handshake (TCP+TLS 1.2 needs 3 RTTs)" },
    Figure { number: 10, class: ExperimentClass::LowBdpNoLoss, paper_size: SHORT, view: View::Benefit,
        claim: "for short transfers QUIC should remain single-path with heterogeneous paths" },
];

impl Figure {
    /// The response size this figure runs at: `requested` (`--size`)
    /// replaces the 20 MB of Figs. 3–8 only.
    pub fn size(&self, requested: Option<usize>) -> usize {
        match requested {
            Some(size) if self.takes_size() => size,
            _ => self.paper_size,
        }
    }

    /// True for the figures `--size` scales: Figs. 3–8.
    pub fn takes_size(&self) -> bool {
        self.paper_size == LONG
    }

    /// `Fig. N — [aggregation benefit, ]GET <size>, <class>`.
    pub fn title(&self, size: usize) -> String {
        let view = match self.view {
            View::Ratio => "",
            View::Benefit => "aggregation benefit, ",
        };
        let size = match size {
            s if s % (1 << 20) == 0 => format!("{} MB", s >> 20),
            s if s % (1 << 10) == 0 => format!("{} kB", s >> 10),
            s => format!("{s} B"),
        };
        let class = self.class.name();
        format!("Fig. {} — {view}GET {size}, {class}", self.number)
    }
}

/// One artefact of §4.
#[derive(Debug, Clone, Copy)]
pub enum Artefact {
    /// Table 1: the design's parameter ranges and sample scenarios.
    Table1,
    /// One of Figs. 3–10.
    Swept(&'static Figure),
    /// Fig. 11: the handover's request delays.
    Handover,
}

impl Artefact {
    /// Every artefact, in paper order.
    pub fn all() -> impl Iterator<Item = Artefact> {
        let swept = FIGURES.iter().map(Artefact::Swept);
        std::iter::once(Artefact::Table1)
            .chain(swept)
            .chain([Artefact::Handover])
    }

    /// The name `--figure` takes: `table1`, `fig3` … `fig11`.
    pub fn name(&self) -> String {
        match self {
            Artefact::Table1 => "table1".to_string(),
            Artefact::Swept(figure) => format!("fig{}", figure.number),
            Artefact::Handover => "fig11".to_string(),
        }
    }
}

/// The sweeps that print the swept figures among `artefacts`: one per
/// distinct class and size, in order of first use, so rows that share
/// both share a sweep. `requested` is `--size`.
pub fn sweeps(artefacts: &[Artefact], requested: Option<usize>) -> Vec<(ExperimentClass, usize)> {
    let mut plan = Vec::new();
    for artefact in artefacts {
        let Artefact::Swept(figure) = artefact else {
            continue;
        };
        let sweep = (figure.class, figure.size(requested));
        if !plan.contains(&sweep) {
            plan.push(sweep);
        }
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_titles_are_the_per_figure_titles() {
        let titles: Vec<String> = FIGURES.iter().map(|f| f.title(f.size(None))).collect();
        assert_eq!(
            titles,
            [
                "Fig. 3 — GET 20 MB, low-BDP-no-loss",
                "Fig. 4 — aggregation benefit, GET 20 MB, low-BDP-no-loss",
                "Fig. 5 — GET 20 MB, low-BDP-losses",
                "Fig. 6 — aggregation benefit, GET 20 MB, low-BDP-losses",
                "Fig. 7 — aggregation benefit, GET 20 MB, high-BDP-no-loss",
                "Fig. 8 — GET 20 MB, high-BDP-losses",
                "Fig. 9 — GET 256 kB, low-BDP-no-loss",
                "Fig. 10 — aggregation benefit, GET 256 kB, low-BDP-no-loss",
            ]
        );
    }

    #[test]
    fn titles_state_the_size_that_ran() {
        for figure in &FIGURES {
            let title = figure.title(figure.size(Some(4 << 20)));
            let expected = if figure.number <= 8 {
                "GET 4 MB"
            } else {
                "GET 256 kB"
            };
            assert!(title.contains(expected), "{title}");
        }
        assert!(FIGURES[0].title(1000).contains("GET 1000 B"));
    }

    #[test]
    fn rows_of_one_class_and_size_share_a_sweep() {
        let [.., fig9, fig10] = &FIGURES;
        let short = [Artefact::Swept(fig9), Artefact::Swept(fig10)];
        let low = ExperimentClass::LowBdpNoLoss;
        assert_eq!(sweeps(&short, None), [(low, SHORT)]);
        // `--size` leaves Figs. 9 and 10 at 256 kB.
        assert_eq!(sweeps(&short, Some(4 << 20)), [(low, SHORT)]);
        let all: Vec<Artefact> = Artefact::all().collect();
        assert_eq!(sweeps(&all, None).len(), 5);
        // At 256 kB, Figs. 3–4 are Figs. 9–10's sweep.
        assert_eq!(sweeps(&all, Some(SHORT)).len(), 4);
    }

    #[test]
    fn artefacts_are_named_in_paper_order() {
        let names: Vec<String> = Artefact::all().map(|a| a.name()).collect();
        let expected: Vec<String> = std::iter::once("table1".to_string())
            .chain((3..=11).map(|n| format!("fig{n}")))
            .collect();
        assert_eq!(names, expected);
    }
}
