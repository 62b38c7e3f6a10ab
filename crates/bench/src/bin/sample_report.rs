//! Sampled-minibatch quality + million-node scalability report.
//! See [`mg_bench::samplereport`].

fn main() {
    std::process::exit(mg_bench::report::emit(
        "sample",
        mg_bench::samplereport::run,
    ));
}
