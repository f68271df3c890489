//! One module per figure/table of the paper's evaluation.
//!
//! Each experiment produces the rows or series the paper reports, in a
//! structured form that the integration tests assert shape claims
//! against and that `pn-bench`'s `repro` binary prints at the paper's
//! windows, one artefact per module name below (`repro fig12 table2`):
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`fig01`] | Fig. 1 — day-long 250 cm² solar output trace |
//! | [`fig03`] | Fig. 3 — transient-input concept, lifetime with/without scaling |
//! | [`fig04`] | Fig. 4 — board power vs frequency per core configuration |
//! | [`fig06`] | Fig. 6 — shadowing simulation, with/without control |
//! | [`fig07`] | Fig. 7 — raytrace FPS vs board power per OPP |
//! | [`fig10`] | Fig. 10 — hot-plug and DVFS latencies |
//! | [`table1`] | Table I — worst-case transition cost and buffer sizing |
//! | [`fig11`] | Fig. 11 — response to a controlled variable supply |
//! | [`fig12`] | Fig. 12 — six-hour `VC` stability under full sun |
//! | [`fig13`] | Fig. 13 — PV IV curves and voltage residency histogram |
//! | [`fig14`] | Fig. 14 — available vs consumed power over the day |
//! | [`table2`] | Table II — 60-minute governor comparison |
//! | [`fig15`] | Fig. 15 — CPU overhead of the budgeting software |
//! | [`params`] | §III — the Vwidth/Vq/α/β selection sweep |

pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig06;
pub mod fig07;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod params;
pub mod table1;
pub mod table2;
