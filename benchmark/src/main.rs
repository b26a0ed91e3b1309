fn main() {
    std::process::exit(ibis_benchmark::cli::main(
        std::env::args().skip(1).collect(),
    ));
}
