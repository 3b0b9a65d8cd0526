module scholarrank/bench

go 1.22

require scholarrank v0.0.0

replace scholarrank => ../
