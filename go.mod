module distkcore

go 1.24
