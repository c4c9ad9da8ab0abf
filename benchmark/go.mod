module sparqlopt/benchmark

go 1.22

require sparqlopt v0.0.0

replace sparqlopt => ../
