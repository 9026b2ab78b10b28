module github.com/erdos-go/erdos/benchmark

go 1.22

require github.com/erdos-go/erdos v0.0.0

replace github.com/erdos-go/erdos => ../
